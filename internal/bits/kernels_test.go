package bits

import (
	"math/rand"
	"testing"
)

// refBit reads bit i of a buffer through the public reader, the
// bit-at-a-time reference the word kernels are checked against.
func refBit(t *testing.T, b *Buffer, i int) uint64 {
	t.Helper()
	r := NewReader(b)
	var v uint64
	for k := 0; k <= i; k++ {
		var err error
		if v, err = r.ReadBit(); err != nil {
			t.Fatalf("bit %d: %v", k, err)
		}
	}
	return v
}

func randomBuffer(rng *rand.Rand, n int) *Buffer {
	b := New(n)
	for i := 0; i < n; i++ {
		b.WriteBit(rng.Uint64() & 1)
	}
	return b
}

// AppendRange and OrRange must agree with the bit-at-a-time reference
// on every (from, to, at) alignment — both are 64-bit-lane kernels
// whose gather/scatter paths depend on misalignment.
func TestAppendRangeOrRangeAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		src := randomBuffer(rng, 1+rng.Intn(200))
		from := rng.Intn(src.Len() + 1)
		to := from + rng.Intn(src.Len()-from+1)

		dst := randomBuffer(rng, rng.Intn(80))
		base := dst.Len()
		if err := dst.AppendRange(src, from, to); err != nil {
			t.Fatal(err)
		}
		if dst.Len() != base+(to-from) {
			t.Fatalf("AppendRange length %d, want %d", dst.Len(), base+(to-from))
		}
		for k := 0; k < to-from; k++ {
			if got, want := refBit(t, dst, base+k), refBit(t, src, from+k); got != want {
				t.Fatalf("trial %d: appended bit %d = %d, want %d (from=%d to=%d base=%d)",
					trial, k, got, want, from, to, base)
			}
		}

		// OrRange into a pre-extended buffer at a random offset: every
		// target bit is the OR of what was there and the source bit.
		acc := randomBuffer(rng, rng.Intn(40))
		at := rng.Intn(acc.Len() + 1)
		before := make([]uint64, acc.Len())
		for i := range before {
			before[i] = refBit(t, acc, i)
		}
		acc.ZeroExtend(at + (to - from))
		if err := acc.OrRange(src, from, to, at); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < acc.Len(); i++ {
			want := uint64(0)
			if i < len(before) {
				want = before[i]
			}
			if i >= at && i < at+(to-from) {
				want |= refBit(t, src, from+i-at)
			}
			if got := refBit(t, acc, i); got != want {
				t.Fatalf("trial %d: or bit %d = %d, want %d (from=%d to=%d at=%d)",
					trial, i, got, want, from, to, at)
			}
		}
	}
}

func TestRangeErrors(t *testing.T) {
	src := New(10)
	src.WriteUint(0x2a7, 10)
	dst := New(4)
	dst.ZeroExtend(4)
	if err := dst.AppendRange(src, -1, 3); err == nil {
		t.Error("negative from accepted")
	}
	if err := dst.AppendRange(src, 4, 11); err == nil {
		t.Error("to past source accepted")
	}
	if err := dst.AppendRange(src, 7, 3); err == nil {
		t.Error("inverted range accepted")
	}
	if err := dst.OrRange(src, 0, 3, 2); err == nil {
		t.Error("or past destination accepted")
	}
	if err := dst.OrRange(src, 0, 3, -1); err == nil {
		t.Error("negative at accepted")
	}
	if err := dst.AppendRange(src, 5, 5); err != nil {
		t.Errorf("empty append: %v", err)
	}
	if err := dst.OrRange(src, 5, 5, 4); err != nil {
		t.Errorf("empty or: %v", err)
	}
}

// TestFreezeSealsInPlaceAndRefill pins the send-buffer primitives:
// Freeze seals a buffer in place (the same buffer comes back, writes and
// Reset panic, a second Freeze does nothing), and Refill overwrites a
// sealed buffer with a copy of its source in the same storage, seals it
// again and leaves the source the caller's.
func TestFreezeSealsInPlaceAndRefill(t *testing.T) {
	var b, one Buffer
	b.WriteUint(0xAB, 8)
	one.WriteBit(1)
	if v := b.Freeze(); v != &b || !b.Frozen() || b.Freeze() != &b {
		t.Fatal("Freeze did not seal the buffer in place")
	}
	for name, write := range map[string]func(){
		"WriteBit": func() { b.WriteBit(1) },
		"Reset":    b.Reset,
		"Append":   func() { b.Append(&one) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a sealed buffer did not panic", name)
				}
			}()
			write()
		}()
	}

	src := New(16)
	src.WriteUint(0x1234, 13)
	storage := &b.data[:1][0]
	if got := b.Refill(src); got != &b || !b.Frozen() || !b.Equal(src) {
		t.Fatalf("Refill: same=%v frozen=%v bits=%s, want %s", got == &b, b.Frozen(), b.String(), src.String())
	}
	if &b.data[0] != storage {
		t.Error("Refill moved storage that held the source")
	}
	src.WriteBit(1)
	if b.Len() != 13 || src.Frozen() {
		t.Errorf("source and refilled buffer not separate: len %d, source frozen %v", b.Len(), src.Frozen())
	}
	// A shorter refill leaves no stale bits behind (Equal compares bytes).
	short := New(3)
	short.WriteUint(5, 3)
	if !b.Refill(short).Equal(short) {
		t.Errorf("short refill reads %s, want %s", b.String(), short.String())
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Refill(src) }); allocs != 0 {
		t.Errorf("Refill within capacity allocates %.1f objects", allocs)
	}
}

// TestNewRowCarvesOneSlab pins the buffer row: n empty, writable buffers
// with room for sizeHint bits each, in two allocations whatever n is;
// filling every buffer to sizeHint keeps each one's bits apart, and a
// buffer that outgrows its share moves out without touching a neighbour.
func TestNewRowCarvesOneSlab(t *testing.T) {
	for _, n := range []int{1, 5, 64} {
		if allocs := testing.AllocsPerRun(10, func() { NewRow(n, 12) }); allocs != 2 {
			t.Errorf("NewRow(%d, 12) allocates %.0f objects, want 2", n, allocs)
		}
	}
	const n, hint = 5, 12
	row := NewRow(n, hint)
	for i := range row {
		if row[i].Len() != 0 || row[i].Frozen() || cap(row[i].data) != 2 {
			t.Fatalf("buffer %d: len %d frozen %v cap %d, want an empty writable 2-byte share",
				i, row[i].Len(), row[i].Frozen(), cap(row[i].data))
		}
	}
	want := func(i int) uint64 { return uint64(0xFFF - 257*i) }
	for i := range row {
		fill := func() {
			row[i].Reset()
			row[i].WriteUint(want(i), hint)
		}
		if allocs := testing.AllocsPerRun(1, fill); allocs != 0 {
			t.Errorf("buffer %d: filling %d bits allocates %.0f objects", i, hint, allocs)
		}
	}
	row[2].WriteUint(0x3F, 6) // past its share: moves out
	for i := range row {
		if got, _ := NewReader(&row[i]).ReadUint(hint); got != want(i) {
			t.Errorf("buffer %d reads %#x, want %#x", i, got, want(i))
		}
	}
}

func TestWordKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	// Lengths straddle the 4-wide unroll boundary, including the
	// mismatched-length prefix rule.
	for _, n := range []int{0, 1, 3, 4, 5, 8, 11} {
		mk := func() []uint64 {
			s := make([]uint64, n)
			for i := range s {
				s[i] = rng.Uint64()
			}
			return s
		}
		a, b := mk(), mk()
		xor := append([]uint64{}, a...)
		XorWords(xor, b)
		or := append([]uint64{}, a...)
		OrWords(or, b)
		xor3, or3 := make([]uint64, n), make([]uint64, n)
		XorInto(xor3, a, b)
		OrInto(or3, a, b)
		for i := 0; i < n; i++ {
			if xor[i] != a[i]^b[i] || xor3[i] != a[i]^b[i] {
				t.Fatalf("n=%d: xor word %d wrong", n, i)
			}
			if or[i] != a[i]|b[i] || or3[i] != a[i]|b[i] {
				t.Fatalf("n=%d: or word %d wrong", n, i)
			}
		}
		if n >= 2 {
			// Shorter src folds only the prefix.
			short := append([]uint64{}, a...)
			XorWords(short, b[:1])
			if short[0] != a[0]^b[0] || short[1] != a[1] {
				t.Fatalf("n=%d: prefix rule violated", n)
			}
		}
	}
}

func TestFlipBitAndBitset(t *testing.T) {
	b := New(16)
	b.WriteUint(0, 12)
	b.FlipBit(0)
	b.FlipBit(9)
	for i := 0; i < 12; i++ {
		want := uint64(0)
		if i == 0 || i == 9 {
			want = 1
		}
		if got := refBit(t, b, i); got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	b.FlipBit(9)
	if refBit(t, b, 9) != 0 {
		t.Fatal("double flip did not restore the bit")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FlipBit past Len did not panic")
			}
		}()
		b.FlipBit(12)
	}()

	s := make([]uint64, 2)
	for _, i := range []int{0, 63, 64, 100} {
		if BitsetGet(s, i) {
			t.Fatalf("bit %d set in empty bitset", i)
		}
		BitsetSet(s, i)
		if !BitsetGet(s, i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s[0] != 1|1<<63 || s[1] != 1|1<<36 {
		t.Fatalf("bitset words = %x", s)
	}
}

// Reader Reset repoints without allocation; a nil target degrades to
// the empty buffer.
func TestReaderResetRelease(t *testing.T) {
	a, b := New(8), New(8)
	a.WriteUint(0xaa, 8)
	b.WriteUint(0x55, 8)
	r := NewReader(a)
	if v, _ := r.ReadUint(8); v != 0xaa {
		t.Fatalf("read %x", v)
	}
	r.Reset(b)
	if r.Remaining() != 8 {
		t.Fatalf("remaining after reset = %d", r.Remaining())
	}
	if v, _ := r.ReadUint(8); v != 0x55 {
		t.Fatalf("read after reset %x", v)
	}
	r.Reset(nil)
	if r.Remaining() != 0 {
		t.Fatal("nil reset not empty")
	}
}

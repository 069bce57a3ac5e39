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

// The arena contract: Get hands out writable buffers, Freeze seals in
// place without a copy-on-write view, MarkReclaim deduplicates the
// reclaim list, and Recycle returns struct + storage for reuse.
func TestArenaLifecycle(t *testing.T) {
	var a Arena
	b := a.Get(64)
	if !b.FromArena() || b.Frozen() {
		t.Fatalf("fresh arena buffer: fromArena=%v frozen=%v", b.FromArena(), b.Frozen())
	}
	plain := New(8)
	if plain.FromArena() {
		t.Fatal("pool buffer claims an arena")
	}
	if plain.MarkReclaim() {
		t.Fatal("non-arena buffer accepted a reclaim mark")
	}
	plain.Release()

	b.WriteUint(0xbeef, 16)
	if got := b.Freeze(); got != b {
		t.Fatal("Freeze of an arena buffer allocated a view")
	}
	if !b.MarkReclaim() {
		t.Fatal("first reclaim mark refused")
	}
	if b.MarkReclaim() {
		t.Fatal("duplicate reclaim mark accepted (broadcast would double-free)")
	}
	data := &b.data[0]
	b.Recycle()

	// Reuse: same struct and storage come back, empty and writable.
	r := a.Get(16)
	if r != b || r.Len() != 0 || r.Frozen() {
		t.Fatalf("recycled buffer not reused: same=%v len=%d frozen=%v", r == b, r.Len(), r.Frozen())
	}
	r.WriteUint(1, 8)
	if &r.data[0] != data {
		t.Fatal("recycled buffer regrew its storage")
	}
	// A larger hint regrows storage instead of overflowing.
	r.Recycle()
	big := a.Get(1 << 12)
	if big != r || cap(big.data) < 1<<9 {
		t.Fatalf("regrow on larger hint: same=%v cap=%d", big == r, cap(big.data))
	}
	// Recycling a non-arena buffer is a harmless no-op.
	New(4).Recycle()
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

// Reader Reset repoints without allocation; Release returns reader and
// buffer to their pools; a nil target degrades to the empty buffer.
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
	r.Release()
	a.Release()
}

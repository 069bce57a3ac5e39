package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	var b Buffer
	pattern := []uint64{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, v := range pattern {
		b.WriteBit(v)
	}
	if b.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(pattern))
	}
	r := NewReader(&b)
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Errorf("bit %d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err != ErrShortBuffer {
		t.Errorf("read past end: err = %v, want ErrShortBuffer", err)
	}
}

func TestWriteReadUintRoundTrip(t *testing.T) {
	f := func(v uint64, widthSeed uint8) bool {
		width := int(widthSeed%64) + 1
		masked := v
		if width < 64 {
			masked = v & ((1 << uint(width)) - 1)
		}
		var b Buffer
		b.WriteUint(v, width)
		got, err := NewReader(&b).ReadUint(width)
		return err == nil && got == masked && b.Len() == width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixedSequence(t *testing.T) {
	var b Buffer
	b.WriteUint(42, 7)
	b.WriteBool(true)
	b.WriteUint(1<<40+17, 41)
	b.WriteBool(false)
	r := NewReader(&b)
	if v, _ := r.ReadUint(7); v != 42 {
		t.Errorf("first = %d, want 42", v)
	}
	if v, _ := r.ReadBool(); !v {
		t.Error("second = false, want true")
	}
	if v, _ := r.ReadUint(41); v != 1<<40+17 {
		t.Errorf("third = %d", v)
	}
	if v, _ := r.ReadBool(); v {
		t.Error("fourth = true, want false")
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestSliceAndChunks(t *testing.T) {
	var b Buffer
	rng := rand.New(rand.NewSource(7))
	ref := make([]uint64, 100)
	for i := range ref {
		ref[i] = uint64(rng.Intn(2))
		b.WriteBit(ref[i])
	}
	s, err := b.Slice(13, 57)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 44 {
		t.Fatalf("slice len = %d, want 44", s.Len())
	}
	r := NewReader(s)
	for i := 13; i < 57; i++ {
		v, _ := r.ReadBit()
		if v != ref[i] {
			t.Fatalf("slice bit %d mismatch", i)
		}
	}

	// Cut 7-bit chunks the way the round exchanges do (AppendRange into
	// a fresh buffer per round) and put them back together.
	var chunks []*Buffer
	for off := 0; off < b.Len(); off += 7 {
		c := New(7)
		if err := c.AppendRange(&b, off, min(off+7, b.Len())); err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, c)
	}
	if len(chunks) != 15 { // ceil(100/7)
		t.Fatalf("got %d chunks, want 15", len(chunks))
	}
	var recon Buffer
	for _, c := range chunks {
		recon.Append(c)
	}
	if !recon.Equal(&b) {
		t.Error("concat of chunks != original")
	}
}

func TestSliceErrors(t *testing.T) {
	var b Buffer
	b.WriteUint(5, 10)
	cases := [][2]int{{-1, 3}, {0, 11}, {7, 3}}
	for _, c := range cases {
		if _, err := b.Slice(c[0], c[1]); err == nil {
			t.Errorf("Slice(%d,%d) succeeded, want error", c[0], c[1])
		}
	}
}

func TestAppendConcat(t *testing.T) {
	var a, b Buffer
	a.WriteUint(9, 5)
	b.WriteUint(1023, 10)
	var c Buffer
	c.Append(&a)
	c.Append(&b)
	if c.Len() != 15 {
		t.Fatalf("Len = %d, want 15", c.Len())
	}
	r := NewReader(&c)
	if v, _ := r.ReadUint(5); v != 9 {
		t.Errorf("first part = %d, want 9", v)
	}
	if v, _ := r.ReadUint(10); v != 1023 {
		t.Errorf("second part = %d, want 1023", v)
	}
}

func TestUintWidth(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 62, 63},
	}
	for _, c := range cases {
		if got := UintWidth(c.v); got != c.want {
			t.Errorf("UintWidth(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestMix64 pins Mix64 to the published splitmix64 generator: seeded
// with 0, its k-th output is the finalizer of k golden-ratio increments.
func TestMix64(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	for k, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := Mix64(uint64(k+1) * gamma); got != want {
			t.Errorf("Mix64(%d*gamma) = %#x, want %#x", k+1, got, want)
		}
	}
}

func TestFromBits(t *testing.T) {
	buf, err := FromBits([]byte{0b1010_1010, 0b0000_0001}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 9 {
		t.Fatalf("Len = %d, want 9", buf.Len())
	}
	r := NewReader(buf)
	want := []uint64{0, 1, 0, 1, 0, 1, 0, 1, 1}
	for i, w := range want {
		v, _ := r.ReadBit()
		if v != w {
			t.Errorf("bit %d = %d, want %d", i, v, w)
		}
	}
	if _, err := FromBits([]byte{1}, 9); err == nil {
		t.Error("FromBits with short data succeeded, want error")
	}
}

func TestCloneIndependence(t *testing.T) {
	var a Buffer
	a.WriteUint(3, 2)
	b := a.Clone()
	a.WriteBit(1)
	if b.Len() != 2 {
		t.Errorf("clone len changed to %d after writing original", b.Len())
	}
}

func TestEqual(t *testing.T) {
	var a, b Buffer
	a.WriteUint(5, 3)
	b.WriteUint(5, 3)
	if !a.Equal(&b) {
		t.Error("identical buffers not Equal")
	}
	b.WriteBit(0)
	if a.Equal(&b) {
		t.Error("buffers of different length Equal")
	}
}

func TestStringRendering(t *testing.T) {
	var b Buffer
	b.WriteBit(1)
	b.WriteBit(0)
	b.WriteBit(1)
	if got := b.String(); got != "101" {
		t.Errorf("String = %q, want 101", got)
	}
}

func TestFrozenWritePanics(t *testing.T) {
	var a Buffer
	a.WriteBit(1)
	v := a.Freeze()
	defer func() {
		if recover() == nil {
			t.Error("write to frozen buffer did not panic")
		}
	}()
	v.WriteBit(0)
}

func TestPoolRoundTrip(t *testing.T) {
	b := Get(64)
	b.WriteUint(123, 32)
	v := b.Freeze()
	b.Release() // b is sealed: Release must leave it alone
	if got, _ := NewReader(v).ReadUint(32); got != 123 {
		t.Errorf("frozen buffer corrupted by Release: %d", got)
	}
	c := Get(16)
	c.WriteUint(9, 16)
	if got, _ := NewReader(c).ReadUint(16); got != 9 {
		t.Errorf("pooled buffer reads %d, want 9", got)
	}
	if got, _ := NewReader(v).ReadUint(32); got != 123 {
		t.Errorf("frozen buffer corrupted by pooled reuse: %d", got)
	}
	c.Release()
	v.Release() // no-op on frozen buffers
	var nilBuf *Buffer
	nilBuf.Release() // no-op on nil
}

func TestAppendUnalignedQuick(t *testing.T) {
	// Append at every (dst offset, src length) phase must match the
	// bit-by-bit reference.
	f := func(dstBits uint8, srcBits uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, m := int(dstBits%70), int(srcBits%70)
		var dst, src Buffer
		ref := make([]uint64, 0, d+m)
		for i := 0; i < d; i++ {
			v := uint64(rng.Intn(2))
			dst.WriteBit(v)
			ref = append(ref, v)
		}
		for i := 0; i < m; i++ {
			v := uint64(rng.Intn(2))
			src.WriteBit(v)
			ref = append(ref, v)
		}
		dst.Append(&src)
		if dst.Len() != d+m {
			return false
		}
		for i, want := range ref {
			if dst.bit(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteReadUintUnalignedQuick(t *testing.T) {
	// WriteUint/ReadUint at arbitrary bit offsets round-trip.
	f := func(pre uint8, v uint64, widthSeed uint8) bool {
		p := int(pre % 13)
		width := int(widthSeed%64) + 1
		masked := v
		if width < 64 {
			masked = v & (1<<uint(width) - 1)
		}
		var b Buffer
		b.WriteUint(uint64(pre), p)
		b.WriteUint(v, width)
		b.WriteUint(0xF0F0, 16) // trailing data must not disturb the read
		r := NewReader(&b)
		if err := r.Skip(p); err != nil {
			return false
		}
		got, err := r.ReadUint(width)
		if err != nil || got != masked {
			return false
		}
		tail, err := r.ReadUint(16)
		return err == nil && tail == 0xF0F0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromBitsMasksTrailingGarbage(t *testing.T) {
	// FromBits must zero bits past n so byte-level Equal/Append stay exact.
	buf, err := FromBits([]byte{0xFF}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var want Buffer
	want.WriteUint(7, 3)
	if !buf.Equal(&want) {
		t.Errorf("FromBits(0xFF, 3) = %s, want 111", buf)
	}
	var cat Buffer
	cat.Append(buf)
	cat.Append(buf)
	if cat.String() != "111111" {
		t.Errorf("append of masked buffers = %s, want 111111", cat.String())
	}
}

// TestAllocRegressionReader pins the pool-free reader: NewReader inlines,
// so a reader that does not escape lives on the caller's stack and
// reading a live buffer allocates nothing. A pooled reader that is never
// handed back costs one heap object per call. Matches the CI
// alloc-regression pattern (-run AllocRegression).
func TestAllocRegressionReader(t *testing.T) {
	buf := New(64)
	buf.WriteUint(0xA5, 8)
	buf.WriteUint(0x3C, 8)
	var sum uint64
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(buf)
		v, err := r.ReadUint(8)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
	})
	if allocs != 0 {
		t.Errorf("NewReader+ReadUint allocates %.2f objects per call, want 0", allocs)
	}
	if sum != 101*0xA5 {
		t.Errorf("read sum = %d, want %d", sum, 101*0xA5)
	}
}

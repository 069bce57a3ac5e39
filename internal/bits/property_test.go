package bits

import (
	"math/rand"
	"testing"
)

// TestFromBitsTrailingZeroInvariant property-tests the package invariant
// every word-level fast path relies on: after FromBits(data, n), all
// storage bits at position >= n are zero even when the input slice has
// junk there, and the buffer never aliases the argument.
func TestFromBitsTrailingZeroInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 2000; trial++ {
		nbytes := rng.Intn(40)
		data := make([]byte, nbytes)
		for i := range data {
			data[i] = byte(rng.Intn(256)) // junk everywhere, incl. past n
		}
		n := 0
		if nbytes > 0 {
			n = rng.Intn(8*nbytes + 1)
		}
		b, err := FromBits(data, n)
		if err != nil {
			t.Fatalf("FromBits(%d bytes, %d bits): %v", nbytes, n, err)
		}
		if b.Len() != n {
			t.Fatalf("Len = %d, want %d", b.Len(), n)
		}
		if want := (n + 7) / 8; len(b.Bytes()) != want {
			t.Fatalf("storage %d bytes, want %d", len(b.Bytes()), want)
		}
		// All bits >= n must be zero.
		if n%8 != 0 {
			last := b.Bytes()[len(b.Bytes())-1]
			if last&^(byte(1<<uint(n%8))-1) != 0 {
				t.Fatalf("trial %d: junk above bit %d survived: %08b", trial, n, last)
			}
		}
		// Valid bits must match the input.
		for i := 0; i < n; i++ {
			want := data[i/8]&(1<<uint(i%8)) != 0
			if (b.bit(i) != 0) != want {
				t.Fatalf("bit %d = %v, want %v", i, b.bit(i) != 0, want)
			}
		}
		// No aliasing: scribbling on the argument must not change b.
		if nbytes > 0 {
			before := b.Clone()
			data[rng.Intn(nbytes)] ^= 0xff
			if !b.Equal(before) {
				t.Fatal("FromBits aliases its argument")
			}
		}
		// Appending to the result must keep Equal consistent with a
		// bit-by-bit rebuild (exercises the invariant consumers).
		cp := b.Clone()
		cp.WriteUint(uint64(trial), 11)
		rebuilt := New(cp.Len())
		for i := 0; i < b.Len(); i++ {
			rebuilt.WriteBit(b.bit(i))
		}
		rebuilt.WriteUint(uint64(trial), 11)
		if !cp.Equal(rebuilt) {
			t.Fatalf("trial %d: append after FromBits broke Equal", trial)
		}
	}
}

// TestFrozenViewRejectsWrites pins the seal from the caller's side: the
// buffer Freeze returns is immutable.
func TestFrozenViewRejectsWrites(t *testing.T) {
	b := New(8)
	b.WriteUint(0xab, 8)
	v := b.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("write to frozen buffer did not panic")
		}
	}()
	v.WriteBit(1)
}

package bits

import (
	"bytes"
	"testing"
)

// naiveBits is the reference model for the fuzz targets: a plain []bool
// bit string with the obvious operations.
type naiveBits []bool

func (m naiveBits) writeUint(v uint64, width int) naiveBits {
	for i := 0; i < width; i++ {
		m = append(m, v&(1<<uint(i)) != 0)
	}
	return m
}

func (m naiveBits) readUint(pos, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		if m[pos+i] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// FuzzReaderWriter round-trips a fuzz-chosen program of WriteUint /
// WriteBit / Append / Slice / Clone operations against the naive model:
// after every program the buffer must read back exactly the model's bits
// through ReadUint/ReadBit, Slice must match the model's subrange, and a
// Clone taken mid-program must still hold the bits from its snapshot
// point after the original keeps writing.
func FuzzReaderWriter(f *testing.F) {
	f.Add([]byte{3, 0xff, 64, 7, 1, 12, 0xab}, uint8(2))
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}, uint8(5))
	f.Add([]byte{9, 200, 13, 66, 40, 1}, uint8(0))
	f.Fuzz(func(t *testing.T, program []byte, snapAt uint8) {
		buf := New(0)
		var model naiveBits
		var snap *Buffer
		var snapWant naiveBits

		// Interpret the byte stream as (width, value) pairs; a width byte
		// of 255 is a WriteBit, width is otherwise taken mod 65.
		for i := 0; i+1 < len(program); i += 2 {
			w, v := program[i], uint64(program[i+1])
			if w == 255 {
				buf.WriteBit(v & 1)
				model = append(model, v&1 != 0)
			} else {
				width := int(w) % 65
				// Spread the one fuzz byte across the word so high bits
				// of wide writes are exercised too.
				val := v * 0x0101010101010101
				buf.WriteUint(val, width)
				if width < 64 {
					val &= 1<<uint(width) - 1
				}
				model = model.writeUint(val, width)
			}
			if int(snapAt) == i/2 {
				snap = buf.Clone()
				snapWant = append(naiveBits(nil), model...)
			}
		}

		if buf.Len() != len(model) {
			t.Fatalf("Len = %d, model has %d bits", buf.Len(), len(model))
		}

		// Full readback, alternating widths so reads straddle byte
		// boundaries differently from the writes.
		r := NewReader(buf)
		for pos, width := 0, 1; pos < len(model); {
			if width > len(model)-pos {
				width = len(model) - pos
			}
			got, err := r.ReadUint(width)
			if err != nil {
				t.Fatalf("ReadUint(%d) at %d: %v", width, pos, err)
			}
			if want := model.readUint(pos, width); got != want {
				t.Fatalf("ReadUint(%d) at %d = %#x, want %#x", width, pos, got, want)
			}
			pos += width
			width = width%13 + 1
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bits left after full readback", r.Remaining())
		}
		if _, err := r.ReadBit(); err != ErrShortBuffer {
			t.Fatalf("read past end: %v, want ErrShortBuffer", err)
		}

		// Slice against the model's subrange.
		if n := len(model); n > 0 {
			from := int(snapAt) % n
			to := from + (n-from)/2
			sl, err := buf.Slice(from, to)
			if err != nil {
				t.Fatalf("Slice(%d,%d): %v", from, to, err)
			}
			sr := NewReader(sl)
			for pos := from; pos < to; pos++ {
				got, err := sr.ReadBit()
				if err != nil {
					t.Fatal(err)
				}
				if (got != 0) != model[pos] {
					t.Fatalf("slice bit %d = %d, model %v", pos, got, model[pos])
				}
			}
			sl.Release()
		}

		// The mid-program snapshot must be unchanged by later writes.
		if snap != nil {
			if snap.Len() != len(snapWant) {
				t.Fatalf("snapshot Len = %d, want %d", snap.Len(), len(snapWant))
			}
			sr := NewReader(snap)
			for pos := range snapWant {
				got, err := sr.ReadBit()
				if err != nil {
					t.Fatal(err)
				}
				if (got != 0) != snapWant[pos] {
					t.Fatalf("snapshot bit %d = %d, want %v", pos, got, snapWant[pos])
				}
			}
		}

		// The trailing-bits-are-zero invariant (what Equal's byte compare
		// and the word fast paths rely on).
		if n := buf.Len(); n%8 != 0 && len(buf.Bytes()) > 0 {
			last := buf.Bytes()[len(buf.Bytes())-1]
			if last&^(byte(1<<uint(n%8))-1) != 0 {
				t.Fatalf("bits >= n are not zero: last byte %#x with %d valid bits", last, n%8)
			}
		}

		// Round-trip through FromBits preserves equality.
		cp, err := FromBits(buf.Bytes(), buf.Len())
		if err != nil {
			t.Fatal(err)
		}
		if !cp.Equal(buf) {
			t.Fatal("FromBits(Bytes, Len) != original")
		}
		if !bytes.Equal(cp.Bytes(), buf.Bytes()) {
			t.Fatal("FromBits storage differs from original")
		}
	})
}

package routing

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bits"
)

func framePayload(t *testing.T, data []byte, n int) *bits.Buffer {
	t.Helper()
	b, err := bits.FromBits(data, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 37, 256, 1000} {
		data := make([]byte, (n+7)/8)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		if n%8 != 0 {
			data[len(data)-1] &= byte(1<<uint(n%8)) - 1
		}
		payload := framePayload(t, data, n)
		var frame, got bits.Buffer
		if err := EncodeFrame(&frame, payload); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if frame.Len() != FrameBits(n) {
			t.Fatalf("n=%d: frame is %d bits, want %d", n, frame.Len(), FrameBits(n))
		}
		if err := DecodeFrame(&got, &frame); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !got.Equal(payload) {
			t.Fatalf("n=%d: payload mangled", n)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	big := bits.New(MaxFramePayloadBits + 1)
	big.ZeroExtend(MaxFramePayloadBits + 1)
	var frame bits.Buffer
	if err := EncodeFrame(&frame, big); !errors.Is(err, ErrPayloadTooLong) {
		t.Fatalf("err = %v, want ErrPayloadTooLong", err)
	}
}

func TestFrameRejectsMutations(t *testing.T) {
	payload := framePayload(t, []byte{0xde, 0xad, 0xbe, 0xef}, 30)
	frame := bits.New(FrameBits(30))
	if err := EncodeFrame(frame, payload); err != nil {
		t.Fatal(err)
	}
	var got bits.Buffer

	// Truncated below the header.
	stub := bits.New(20)
	if err := stub.AppendRange(frame, 0, 20); err != nil {
		t.Fatal(err)
	}
	if err := DecodeFrame(&got, stub); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("header-short frame: err = %v", err)
	}
	// Truncated mid-payload.
	short := bits.New(frame.Len())
	if err := short.AppendRange(frame, 0, frame.Len()-5); err != nil {
		t.Fatal(err)
	}
	if err := DecodeFrame(&got, short); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("truncated frame: err = %v", err)
	}
	// Extended.
	long := frame.Clone()
	long.WriteUint(0, 5)
	if err := DecodeFrame(&got, long); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("extended frame: err = %v", err)
	}
	// Every single-bit flip across the whole frame must be caught.
	for i := 0; i < frame.Len(); i++ {
		bad := frame.Clone()
		bad.FlipBit(i)
		if err := DecodeFrame(&got, bad); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at bit %d accepted: err = %v", i, err)
		}
	}
}

// TestFrameHeavyCorruption hammers frames with many random flips: decode
// must detect (the overwhelmingly likely case for >3 flips) or — never —
// return a payload different from the original. With a fixed seed this
// is fully deterministic.
func TestFrameHeavyCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	payload := framePayload(t, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 64)
	frame := bits.New(FrameBits(64))
	if err := EncodeFrame(frame, payload); err != nil {
		t.Fatal(err)
	}
	var got bits.Buffer
	for trial := 0; trial < 2000; trial++ {
		bad := frame.Clone()
		flips := 4 + rng.Intn(12)
		for f := 0; f < flips; f++ {
			bad.FlipBit(rng.Intn(bad.Len()))
		}
		err := DecodeFrame(&got, bad)
		if err == nil && !got.Equal(payload) {
			t.Fatalf("trial %d: corrupted frame decoded to a DIFFERENT payload (silent corruption)", trial)
		}
	}
}

// TestFrameCutFromStream decodes a frame the way DirectFramedAgg does:
// encoded into a stream at a bit offset that is not a multiple of 8 and
// cut out of it into a buffer of its own, where DecodeFrame checks the
// CRC in place. That needs the payload to start on a byte boundary of
// the cut frame, so FrameOverheadBits must be a multiple of 8. The cut
// frame decodes to its payload at every sub-byte offset, and every 1-,
// 2- and 3-bit flip of its window in the stream is rejected without
// touching the destination.
func TestFrameCutFromStream(t *testing.T) {
	if FrameOverheadBits%8 != 0 {
		t.Fatalf("FrameOverheadBits = %d is not a multiple of 8: the payload of a frame would not start on a byte boundary", FrameOverheadBits)
	}
	payload := framePayload(t, []byte{0x5a, 0xc3, 0x07}, 19)
	fl := FrameBits(payload.Len())
	var stream, frame, got bits.Buffer
	cut := func(off int) error {
		frame.Reset()
		if err := frame.AppendRange(&stream, off, off+fl); err != nil {
			t.Fatal(err)
		}
		return DecodeFrame(&got, &frame)
	}
	for off := 1; off < 8; off++ {
		stream.Reset()
		stream.WriteUint(0x55, off) // a prefix that leaves the frame mid-byte
		if err := EncodeFrame(&stream, payload); err != nil {
			t.Fatal(err)
		}
		stream.WriteUint(0x5, 3) // and bits after it
		if err := cut(off); err != nil {
			t.Fatalf("intact frame cut at bit %d rejected: %v", off, err)
		}
		if !got.Equal(payload) {
			t.Fatalf("frame cut at bit %d decoded to %v, want %v", off, &got, payload)
		}
	}
	const off = 7 // the stream of the last offset above
	sentinel := framePayload(t, []byte{0xff}, 5)
	try := func(pos ...int) {
		for _, q := range pos {
			stream.FlipBit(off + q)
		}
		got.Reset()
		got.Append(sentinel)
		err := cut(off)
		for _, q := range pos {
			stream.FlipBit(off + q)
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flips at frame bits %v accepted: err = %v", pos, err)
		}
		if !got.Equal(sentinel) {
			t.Fatalf("flips at frame bits %v: a rejected frame overwrote the destination", pos)
		}
	}
	for i := 0; i < fl; i++ {
		try(i)
		for j := i + 1; j < fl; j++ {
			try(i, j)
			for k := j + 1; k < fl; k++ {
				try(i, j, k)
			}
		}
	}
}

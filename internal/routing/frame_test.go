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
		frame, err := EncodeFrame(payload)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if frame.Len() != FrameBits(n) {
			t.Fatalf("n=%d: frame is %d bits, want %d", n, frame.Len(), FrameBits(n))
		}
		got, err := DecodeFrame(frame)
		if err != nil {
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
	if _, err := EncodeFrame(big); !errors.Is(err, ErrPayloadTooLong) {
		t.Fatalf("err = %v, want ErrPayloadTooLong", err)
	}
}

func TestFrameRejectsMutations(t *testing.T) {
	payload := framePayload(t, []byte{0xde, 0xad, 0xbe, 0xef}, 30)
	frame, err := EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated below the header.
	stub, _ := frame.Slice(0, 20)
	if _, err := DecodeFrame(stub); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("header-short frame: err = %v", err)
	}
	// Truncated mid-payload.
	short, _ := frame.Slice(0, frame.Len()-5)
	if _, err := DecodeFrame(short); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("truncated frame: err = %v", err)
	}
	// Extended.
	long := frame.Clone()
	long.WriteUint(0, 5)
	if _, err := DecodeFrame(long); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("extended frame: err = %v", err)
	}
	// Every single-bit flip across the whole frame must be caught.
	for i := 0; i < frame.Len(); i++ {
		bad := frame.Clone()
		bad.FlipBit(i)
		if _, err := DecodeFrame(bad); !errors.Is(err, ErrCorruptFrame) {
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
	frame, err := EncodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2000; trial++ {
		bad := frame.Clone()
		flips := 4 + rng.Intn(12)
		for f := 0; f < flips; f++ {
			bad.FlipBit(rng.Intn(bad.Len()))
		}
		got, err := DecodeFrame(bad)
		if err == nil && !got.Equal(payload) {
			t.Fatalf("trial %d: corrupted frame decoded to a DIFFERENT payload (silent corruption)", trial)
		}
	}
}

package routing

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/core"
)

// FuzzChunkReassembly drives the offset-addressed reassembly primitive
// the routed exchanges are built on (bits.ZeroExtend + OrRange over
// cut chunks, as used by circsim's routed streams and ExchangeUnicast's
// chunk loop) against the direct copy: a fuzz-chosen payload is cut into
// bandwidth-sized chunks, the chunks are delivered in a fuzz-chosen
// (possibly out-of-order, offset-tagged) order, and the reassembled
// buffer must equal the original bit-for-bit — as must the in-order
// Append reassembly that ExchangeUnicast performs.
func FuzzChunkReassembly(f *testing.F) {
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, 30, 7, uint16(3))
	f.Add([]byte{1}, 3, 1, uint16(0))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x12}, 37, 64, uint16(9))
	f.Fuzz(func(t *testing.T, payload []byte, nbits, chunkBits int, rot uint16) {
		if nbits < 0 || nbits > 8*len(payload) {
			nbits = 8 * len(payload)
		}
		if chunkBits <= 0 || chunkBits > 1<<12 {
			chunkBits = 1 + (-chunkBits&7)*8
		}
		src, err := bits.FromBits(payload, nbits)
		if err != nil {
			t.Fatal(err)
		}

		// Cut: one chunk per bandwidth window, like the senders do.
		type tagged struct {
			off   int
			chunk *bits.Buffer
		}
		var chunks []tagged
		for off := 0; off < src.Len(); off += chunkBits {
			end := off + chunkBits
			if end > src.Len() {
				end = src.Len()
			}
			c := bits.New(end - off)
			if err := c.AppendRange(src, off, end); err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, tagged{off, c})
		}

		// Deliver out of order: rotate the chunk sequence by `rot`.
		if n := len(chunks); n > 1 {
			r := int(rot) % n
			rotated := append(append([]tagged(nil), chunks[r:]...), chunks[:r]...)

			dst := bits.New(src.Len())
			dst.ZeroExtend(src.Len())
			for _, tc := range rotated {
				if err := dst.OrRange(tc.chunk, 0, tc.chunk.Len(), tc.off); err != nil {
					t.Fatal(err)
				}
			}
			if !dst.Equal(src) {
				t.Fatalf("offset-addressed reassembly differs:\n src %s\n got %s", src, dst)
			}
		}

		// In-order Append reassembly (the ExchangeUnicast receive loop).
		acc := bits.New(src.Len())
		for _, tc := range chunks {
			acc.Append(tc.chunk)
		}
		if !acc.Equal(src) {
			t.Fatalf("append reassembly differs:\n src %s\n got %s", src, acc)
		}
	})
}

// FuzzExchangeUnicast pushes fuzz-chosen per-destination payloads through
// the real chunked exchange (core.ExchangeUnicast) on a 4-node clique and checks every receiver
// got exactly the sender's bits.
func FuzzExchangeUnicast(f *testing.F) {
	f.Add([]byte{0xaa, 0xbb, 0xcc}, 5)
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, seedBytes []byte, bandwidth int) {
		if bandwidth <= 0 || bandwidth > 256 {
			bandwidth = 1 + (-bandwidth & 63)
		}
		const n = 4
		// payload u -> v: seedBytes rotated by (u+v), (u*7+v*3) bits long.
		// Returns any FromBits error instead of failing the test: the
		// closure runs inside engine worker goroutines, where t.Fatal is
		// off-limits.
		payload := func(u, v int) (*bits.Buffer, error) {
			ln := (u*7 + v*3) % (8*len(seedBytes) + 1)
			if len(seedBytes) == 0 {
				ln = 0
			}
			rot := append(append([]byte(nil), seedBytes[(u+v)%max(1, len(seedBytes)):]...),
				seedBytes[:(u+v)%max(1, len(seedBytes))]...)
			return bits.FromBits(rot, ln)
		}
		maxLen := 8 * len(seedBytes)
		rounds := (maxLen + bandwidth - 1) / bandwidth
		if rounds == 0 {
			rounds = 1
		}
		runFuzzExchange(t, n, bandwidth, rounds, payload)
	})
}

// FuzzFaultFrame drives corrupted frames through the checksum decoder
// and asserts the detection guarantee EncodeFrame/DecodeFrame document:
// an intact frame round-trips exactly, and ANY corruption of 1–3 bit
// flips is rejected — never mis-accepted. Up to 3 flips the guarantee is
// a theorem (structural length check + CRC-32/IEEE Hamming distance 4
// through 91,607 bits), so this fuzz target can never legitimately fail
// and any crash or mis-accept it finds is a real decoder bug.
func FuzzFaultFrame(f *testing.F) {
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, 30, uint32(3), uint32(17), uint32(44), uint8(3))
	f.Add([]byte{}, 0, uint32(0), uint32(1), uint32(2), uint8(1))
	f.Add([]byte{0xff}, 8, uint32(5), uint32(5), uint32(5), uint8(2))
	f.Fuzz(func(t *testing.T, payload []byte, nbits int, p1, p2, p3 uint32, nflips uint8) {
		if nbits < 0 || nbits > 8*len(payload) {
			nbits = 8 * len(payload)
		}
		if nbits > 1<<12 {
			nbits = 1 << 12
		}
		src, err := bits.FromBits(payload, nbits)
		if err != nil {
			t.Fatal(err)
		}
		var frame, got bits.Buffer
		if err := EncodeFrame(&frame, src); err != nil {
			t.Fatal(err)
		}

		// Intact round-trip.
		if err := DecodeFrame(&got, &frame); err != nil {
			t.Fatalf("intact frame rejected: %v", err)
		}
		if !got.Equal(src) {
			t.Fatal("intact frame decoded to different payload")
		}

		// 1..3 distinct flips must all be detected.
		want := 1 + int(nflips)%3
		seen := map[int]bool{}
		bad := frame.Clone()
		for _, p := range []uint32{p1, p2, p3}[:want] {
			pos := int(p) % frame.Len()
			if seen[pos] {
				continue // colliding positions would cancel; keep flips distinct
			}
			seen[pos] = true
			bad.FlipBit(pos)
		}
		if len(seen) == 0 {
			return
		}
		if err := DecodeFrame(&got, bad); err == nil {
			t.Fatalf("frame with %d flipped bits accepted (positions %v)", len(seen), seen)
		}
	})
}

// runFuzzExchange runs core.ExchangeUnicast on an n-clique where node u ships
// payload(u, v) to every v != u, and asserts exact delivery. Node bodies
// run on engine worker goroutines, so failures propagate as errors.
func runFuzzExchange(t *testing.T, n, bandwidth, rounds int, payload func(u, v int) (*bits.Buffer, error)) {
	t.Helper()
	cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: 11}
	_, err := core.RunProcs(cfg, func(p *core.Proc) error {
		me := p.ID()
		perDst := make([]*bits.Buffer, n)
		for v := 0; v < n; v++ {
			if v != me {
				var err error
				if perDst[v], err = payload(me, v); err != nil {
					return err
				}
			}
		}
		got, err := core.ExchangeUnicast(p, perDst, rounds)
		if err != nil {
			return err
		}
		for src := 0; src < n; src++ {
			if src == me {
				continue
			}
			want, err := payload(src, me)
			if err != nil {
				return err
			}
			g := got[src]
			if g == nil {
				g = bits.New(0)
			}
			if !g.Equal(want) {
				return fmt.Errorf("node %d: stream from %d is %q, want %q", me, src, g.String(), want.String())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

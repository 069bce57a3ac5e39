package routing

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/bits"
)

// Wire frame layout: [len:16][crc32:32][payload:len bits]. The length
// field is validated structurally (a frame's total bit count must equal
// FrameOverheadBits+len exactly) and the payload is covered by CRC-32
// (IEEE), so the two checks together detect every corruption of up to 3
// bit flips anywhere in the frame: flips touching the length field break
// the structural equation, and CRC-32/IEEE has Hamming distance 4 for
// all codeword lengths through 91,607 bits — far above the 65,567-bit
// maximum frame body. FuzzFaultFrame pins exactly this guarantee.
const (
	frameLenBits = 16
	frameCRCBits = 32

	// FrameOverheadBits is the fixed per-frame header cost in bits.
	FrameOverheadBits = frameLenBits + frameCRCBits

	// MaxFramePayloadBits is the largest payload a single frame can carry.
	MaxFramePayloadBits = 1<<frameLenBits - 1
)

// ErrCorruptFrame reports a frame that failed its length or checksum
// validation — the *detected* outcome of wire corruption.
var ErrCorruptFrame = errors.New("routing: corrupt frame (length or checksum mismatch)")

// FrameBits returns the wire size of a frame carrying payloadBits bits.
func FrameBits(payloadBits int) int { return FrameOverheadBits + payloadBits }

// EncodeFrame wraps a payload in a checksummed, length-prefixed frame.
func EncodeFrame(payload *bits.Buffer) (*bits.Buffer, error) {
	n := payload.Len()
	if n > MaxFramePayloadBits {
		return nil, fmt.Errorf("%w: %d bits exceed the %d-bit frame limit",
			ErrPayloadTooLong, n, MaxFramePayloadBits)
	}
	f := bits.New(FrameOverheadBits + n)
	f.WriteUint(uint64(n), frameLenBits)
	f.WriteUint(uint64(crc32.ChecksumIEEE(payload.Bytes())), frameCRCBits)
	f.Append(payload)
	return f, nil
}

// DecodeFrame validates a frame and returns its payload, or
// ErrCorruptFrame. The frame must be exactly its declared size — framed
// streams carry no slack, so truncation, extension, and every corruption
// of up to 3 flipped bits are all detected (see the layout comment).
func DecodeFrame(frame *bits.Buffer) (*bits.Buffer, error) {
	if frame.Len() < FrameOverheadBits {
		return nil, fmt.Errorf("%w: %d bits is shorter than a frame header", ErrCorruptFrame, frame.Len())
	}
	// No r.Release() here: that would return the caller's frame to the
	// buffer pool.
	r := bits.NewReader(frame)
	n, err := r.ReadUint(frameLenBits)
	if err != nil {
		return nil, err
	}
	want, err := r.ReadUint(frameCRCBits)
	if err != nil {
		return nil, err
	}
	if frame.Len() != FrameOverheadBits+int(n) {
		return nil, fmt.Errorf("%w: header declares %d payload bits, frame carries %d",
			ErrCorruptFrame, n, frame.Len()-FrameOverheadBits)
	}
	payload, err := frame.Slice(FrameOverheadBits, frame.Len())
	if err != nil {
		return nil, err
	}
	if uint64(crc32.ChecksumIEEE(payload.Bytes())) != want {
		return nil, fmt.Errorf("%w: checksum mismatch over %d payload bits", ErrCorruptFrame, n)
	}
	return payload, nil
}

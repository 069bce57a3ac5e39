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

// EncodeFrame appends the frame of payload to dst: its length, its
// CRC-32 and a copy of its bits. dst may already hold bits, at any
// offset, so a framed stream is built by encoding frame after frame into
// one buffer.
func EncodeFrame(dst, payload *bits.Buffer) error {
	n := payload.Len()
	if n > MaxFramePayloadBits {
		return fmt.Errorf("%w: %d bits exceed the %d-bit frame limit",
			ErrPayloadTooLong, n, MaxFramePayloadBits)
	}
	dst.WriteUint(uint64(n), frameLenBits)
	dst.WriteUint(uint64(crc32.ChecksumIEEE(payload.Bytes())), frameCRCBits)
	dst.Append(payload)
	return nil
}

// DecodeFrame validates frame, which must start at bit 0 of its buffer,
// and overwrites dst with its payload; a frame that fails validation
// returns ErrCorruptFrame and leaves dst alone. The frame must be
// exactly its declared size — framed streams carry no slack, so
// truncation, extension, and every corruption of up to 3 flipped bits
// are all detected (see the layout comment). The checksum is computed in
// place: the payload starts at bit FrameOverheadBits, a byte boundary,
// so its bytes are the frame's from there on (bits past the end are zero
// in both), and only a valid payload is copied.
func DecodeFrame(dst, frame *bits.Buffer) error {
	if frame.Len() < FrameOverheadBits {
		return fmt.Errorf("%w: %d bits is shorter than a frame header", ErrCorruptFrame, frame.Len())
	}
	r := bits.NewReader(frame)
	n, err := r.ReadUint(frameLenBits)
	if err != nil {
		return err
	}
	want, err := r.ReadUint(frameCRCBits)
	if err != nil {
		return err
	}
	if frame.Len() != FrameOverheadBits+int(n) {
		return fmt.Errorf("%w: header declares %d payload bits, frame carries %d",
			ErrCorruptFrame, n, frame.Len()-FrameOverheadBits)
	}
	if uint64(crc32.ChecksumIEEE(frame.Bytes()[FrameOverheadBits/8:])) != want {
		return fmt.Errorf("%w: checksum mismatch over %d payload bits", ErrCorruptFrame, n)
	}
	dst.Reset()
	return dst.AppendRange(frame, FrameOverheadBits, frame.Len())
}

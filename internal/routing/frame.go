package routing

import (
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/bits"
	"repro/internal/core"
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

var (
	// ErrCorruptFrame reports a frame that failed its length or checksum
	// validation — the *detected* outcome of wire corruption.
	ErrCorruptFrame = errors.New("routing: corrupt frame (length or checksum mismatch)")

	// ErrUnacked reports a reliable stream whose sender exhausted every
	// attempt without seeing the receiver's acknowledgment.
	ErrUnacked = errors.New("routing: reliable stream unacknowledged after all attempts")
)

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

// ScanFrame decodes the frame starting at bit offset pos of a stream of
// concatenated frames. On success it returns the validated payload and
// the offset of the next frame. On failure the stream cannot be
// advanced — the length field that would say where the next frame
// starts is itself untrusted — so callers must stop scanning and treat
// everything from pos on as lost.
func ScanFrame(stream *bits.Buffer, pos int) (*bits.Buffer, int, error) {
	if pos < 0 || pos+FrameOverheadBits > stream.Len() {
		return nil, 0, fmt.Errorf("%w: no frame header at offset %d", ErrCorruptFrame, pos)
	}
	hdr, err := stream.Slice(pos, pos+frameLenBits)
	if err != nil {
		return nil, 0, err
	}
	n, err := bits.NewReader(hdr).ReadUint(frameLenBits)
	if err != nil {
		return nil, 0, err
	}
	end := pos + FrameOverheadBits + int(n)
	if end > stream.Len() {
		return nil, 0, fmt.Errorf("%w: frame at offset %d overruns the stream", ErrCorruptFrame, pos)
	}
	frame, err := stream.Slice(pos, end)
	if err != nil {
		return nil, 0, err
	}
	payload, err := DecodeFrame(frame)
	if err != nil {
		return nil, 0, err
	}
	return payload, end, nil
}

// ReliableOpts tunes the ack/retransmit schedule of SendReliable /
// RecvReliable. The zero value picks the defaults.
type ReliableOpts struct {
	MaxAttempts int // transmission attempts; default 4
	BackoffCap  int // cap on per-attempt backoff idle rounds; default 8
}

func (o ReliableOpts) resolve() ReliableOpts {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 8
	}
	return o
}

// ReliableRounds returns the data-phase round count both ends of a
// reliable stream must pass for a payload of payloadBits bits at link
// bandwidth b.
func ReliableRounds(payloadBits, b int) int {
	return core.ChunkRounds(FrameBits(payloadBits), b)
}

// backoff returns attempt a's idle-round count: capped exponential.
func (o ReliableOpts) backoff(a int) int {
	n := 1 << uint(a)
	if n > o.BackoffCap || n <= 0 {
		n = o.BackoffCap
	}
	return n
}

// SendReliable streams a framed payload to dst with ack/retransmit over
// a FIXED round schedule: MaxAttempts repetitions of (data phase of
// `rounds` rounds, 1 ack round, capped-exponential backoff idle rounds).
// The schedule never exits early — the two-generals obstacle means the
// receiver can never learn that its ack arrived, so both ends always
// walk the full schedule and stay in lockstep; what shrinks on the happy
// path is BITS, not rounds: after the sender sees an ack it stops
// retransmitting, and idle rounds in which no node sends anything are
// not counted by Stats.Rounds. Under faults, retransmissions scale the
// bit cost with the fault rate — E17's recovery-overhead curve.
//
// It returns ErrUnacked when every attempt's ack was lost; the payload
// may still have arrived (the receiver's own return value is
// authoritative on that side). Corrupted or partially-dropped attempts
// are rejected by the receiver's frame validation, never mis-accepted.
func SendReliable(p *core.Proc, dst int, payload *bits.Buffer, rounds int, opt ReliableOpts) error {
	opt = opt.resolve()
	frame, err := EncodeFrame(payload)
	if err != nil {
		return err
	}
	if frame.Len() > rounds*p.Bandwidth() {
		return fmt.Errorf("%w: frame of %d bits exceeds %d rounds * %d bits",
			ErrPayloadTooLong, frame.Len(), rounds, p.Bandwidth())
	}
	acked := false
	for a := 0; a < opt.MaxAttempts; a++ {
		if acked {
			// Stay in lockstep without spending bits.
			for r := 0; r < rounds+1+opt.backoff(a); r++ {
				p.Next()
			}
			continue
		}
		if err := core.SendChunked(p, dst, frame, rounds); err != nil {
			return err
		}
		in := p.Next() // ack round
		if msg := in[dst]; msg != nil && msg.Len() == 1 {
			if v, err := bits.NewReader(msg).ReadBit(); err == nil && v == 1 {
				acked = true
			}
		}
		for r := 0; r < opt.backoff(a); r++ {
			p.Next()
		}
	}
	if !acked {
		return ErrUnacked
	}
	return nil
}

// RecvReliable is SendReliable's receiving end; both sides must pass the
// same rounds and opts. Every attempt retransmits the identical frame on
// the identical chunk-per-round schedule, so the receiver assembles two
// candidate frames and accepts whichever validates first:
//
//   - Cumulative: data round r of any attempt carries chunk r, so a
//     chunk that survives ANY attempt fills slot r (first arrival wins).
//     Per-chunk loss probability decays exponentially with attempts —
//     without this, an attempt succeeds only if ALL its chunks survive,
//     which decays exponentially with payload length instead.
//   - Fresh: each attempt's arrivals alone, covering the case where a
//     delayed or duplicated chunk landed in the wrong slot and poisoned
//     the cumulative assembly.
//
// Both assemblies pass through DecodeFrame, so misfiled, corrupted, or
// missing chunks can only yield a failed attempt, never a silently wrong
// payload. Once a frame validates, the receiver acks (1 bit) in every
// remaining ack round — acks themselves may be lost, which the sender
// covers by retransmitting into attempts the receiver then ignores.
// Returns ErrCorruptFrame if no attempt produced a valid frame.
func RecvReliable(p *core.Proc, src int, rounds int, opt ReliableOpts) (*bits.Buffer, error) {
	opt = opt.resolve()
	var payload *bits.Buffer
	slots := make([]*bits.Buffer, rounds)
	for a := 0; a < opt.MaxAttempts; a++ {
		acc := bits.New(0)
		for r := 0; r < rounds; r++ {
			in := p.Next()
			if msg := in[src]; msg != nil {
				acc.Append(msg)
				if slots[r] == nil {
					slots[r] = msg // frozen delivery view; safe to retain
				}
			}
		}
		if payload == nil {
			if got, err := DecodeFrame(acc); err == nil {
				payload = got
			}
		}
		if payload == nil {
			if cum := assembleSlots(slots); cum != nil {
				if got, err := DecodeFrame(cum); err == nil {
					payload = got
				}
			}
		}
		if payload != nil {
			ack := bits.New(1)
			ack.WriteBit(1)
			if err := p.Send(src, ack); err != nil {
				return nil, err
			}
		}
		p.Next() // ack round
		for r := 0; r < opt.backoff(a); r++ {
			p.Next()
		}
	}
	if payload == nil {
		return nil, fmt.Errorf("%w: no valid frame in %d attempts", ErrCorruptFrame, opt.MaxAttempts)
	}
	return payload, nil
}

// assembleSlots concatenates the cumulative chunk slots into a candidate
// frame, or returns nil while a gap remains below the highest-filled
// slot (trailing nil slots are fine — the frame may simply be shorter
// than the schedule).
func assembleSlots(slots []*bits.Buffer) *bits.Buffer {
	last := -1
	for r := len(slots) - 1; r >= 0; r-- {
		if slots[r] != nil {
			last = r
			break
		}
	}
	if last < 0 {
		return nil
	}
	cum := bits.New(0)
	for r := 0; r <= last; r++ {
		if slots[r] == nil {
			return nil
		}
		cum.Append(slots[r])
	}
	return cum
}

// Package bits provides bit-exact message buffers for the congested clique
// simulator. The congested clique model meters communication in bits, so
// every protocol message is a Buffer whose length is tracked at bit
// granularity; the round engine enforces the per-link bandwidth b against
// Buffer.Len.
//
// Freeze seals a buffer in place, so that any later write panics. The
// round engine copies each staged message into a buffer the sender owns
// (NewRow carves a node's message buffers from one slab), seals it, and
// hands that one buffer to every recipient; the sender refills it with
// Refill once no recipient can still read it. A package pool
// (Get/Release) recycles Buffer structs across rounds.
package bits

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrShortBuffer is returned when a read runs past the end of a Reader.
var ErrShortBuffer = errors.New("bits: read past end of buffer")

// Buffer is an append-only bit string. The zero value is an empty buffer
// ready to use.
//
// Invariant: len(data) == (n+7)/8 and every bit of data at position >= n
// is zero. All writers preserve this, which is what allows the word-level
// fast paths in Append, WriteUint and Equal.
type Buffer struct {
	data   []byte
	n      int  // number of valid bits in data
	frozen bool // sealed by Freeze; writers panic
}

// New returns an empty buffer with capacity for sizeHint bits.
func New(sizeHint int) *Buffer {
	return &Buffer{data: make([]byte, 0, (sizeHint+7)/8)}
}

// FromBits constructs a buffer that views the first n bits of data.
// The slice is copied so the buffer does not alias the argument.
func FromBits(data []byte, n int) (*Buffer, error) {
	if n < 0 || (n+7)/8 > len(data) {
		return nil, fmt.Errorf("bits: %d bits do not fit in %d bytes", n, len(data))
	}
	cp := make([]byte, (n+7)/8)
	copy(cp, data)
	if n%8 != 0 {
		cp[len(cp)-1] &= byte(1<<uint(n%8)) - 1
	}
	return &Buffer{data: cp, n: n}, nil
}

// Len reports the number of bits written so far.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return b.n
}

// Bytes returns the underlying storage; the final byte may be partially
// filled. The caller must not modify the returned slice.
func (b *Buffer) Bytes() []byte { return b.data }

// Clone returns an independent, writable copy of the buffer.
func (b *Buffer) Clone() *Buffer {
	cp := make([]byte, len(b.data))
	copy(cp, b.data)
	return &Buffer{data: cp, n: b.n}
}

// Freeze seals b in place and returns it: every later write panics,
// while reads stay free. Nothing is copied, so a sealed buffer must stay
// unchanged for as long as anyone reads it; only its owner may reuse it,
// through Refill. Freezing a sealed buffer does nothing.
func (b *Buffer) Freeze() *Buffer {
	b.frozen = true
	return b
}

// Frozen reports whether the buffer is sealed (see Freeze).
func (b *Buffer) Frozen() bool { return b.frozen }

// Refill overwrites b, sealed or not, with a copy of src's bits, seals it
// and returns it. It reuses b's storage when that holds src, so a buffer
// refilled with messages of at most its capacity never allocates. Only
// b's owner may call it, once no reader can still hold b.
func (b *Buffer) Refill(src *Buffer) *Buffer {
	b.Reopen(src.Len())
	b.Append(src)
	return b.Freeze()
}

// Reopen empties b, sealed or not, leaves it writable with room for
// sizeHint bits and returns it: Refill for an owner that writes the new
// contents piece by piece and seals them itself. It keeps b's storage
// when that holds sizeHint bits. Only b's owner may call it, once no
// reader can still hold b.
func (b *Buffer) Reopen(sizeHint int) *Buffer {
	b.frozen = false
	if need := (sizeHint + 7) / 8; cap(b.data) < need {
		b.data = make([]byte, 0, need)
	}
	b.Reset()
	return b
}

// NewRow returns n empty buffers with room for sizeHint bits each, carved
// from one slab: two allocations for the whole row. A buffer that grows
// past sizeHint moves to storage of its own and leaves its neighbours
// alone.
func NewRow(n, sizeHint int) []Buffer {
	w := (sizeHint + 7) / 8
	slab := make([]byte, n*w)
	row := make([]Buffer, n)
	for i := range row {
		row[i].data = slab[i*w : i*w : (i+1)*w]
	}
	return row
}

// beforeWrite enforces the seal of frozen buffers.
func (b *Buffer) beforeWrite() {
	if b.frozen {
		panic("bits: write to frozen buffer (message buffers received from the engine are read-only)")
	}
}

// Reset truncates the buffer to zero bits, keeping its capacity.
func (b *Buffer) Reset() {
	if b.frozen {
		panic("bits: reset of frozen buffer")
	}
	b.data = b.data[:0]
	b.n = 0
}

// WriteBit appends a single bit (any nonzero v is treated as 1).
func (b *Buffer) WriteBit(v uint64) {
	b.beforeWrite()
	if b.n%8 == 0 {
		b.data = append(b.data, 0)
	}
	if v != 0 {
		b.data[b.n/8] |= 1 << uint(b.n%8)
	}
	b.n++
}

// WriteUint appends the low `width` bits of v, least-significant first.
// width must be in [0, 64].
func (b *Buffer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bits: invalid width %d", width))
	}
	if width == 0 {
		return
	}
	b.beforeWrite()
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	off := b.n
	b.n += width
	need := (b.n + 7) / 8
	b.grow(need)
	i := off >> 3
	s := uint(off & 7)
	b.data[i] |= byte(v << s)
	rem := v >> (8 - s)
	for k := i + 1; rem != 0; k++ {
		b.data[k] |= byte(rem)
		rem >>= 8
	}
}

// grow extends the valid byte range to `need`, zeroing any recycled
// capacity so the trailing-bits-are-zero invariant holds.
func (b *Buffer) grow(need int) {
	old := len(b.data)
	if need <= old {
		return
	}
	if cap(b.data) >= need {
		b.data = b.data[:need]
	} else {
		nd := make([]byte, need, 2*need)
		copy(nd, b.data)
		b.data = nd
	}
	for k := old; k < need; k++ {
		b.data[k] = 0
	}
}

// FlipBit inverts bit i in place — the fault injector's corruption
// primitive. The buffer must be writable (Clone a frozen buffer first) and
// i must be in [0, Len).
func (b *Buffer) FlipBit(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bits: FlipBit(%d) outside [0,%d)", i, b.n))
	}
	b.beforeWrite()
	b.data[i>>3] ^= 1 << uint(i&7)
}

// WriteBool appends a single bit encoding v.
func (b *Buffer) WriteBool(v bool) {
	if v {
		b.WriteBit(1)
	} else {
		b.WriteBit(0)
	}
}

// Append concatenates all bits of other onto b. The copy runs a word at a
// time (memcpy when b is byte-aligned), not bit by bit.
func (b *Buffer) Append(other *Buffer) {
	m := other.Len()
	if m == 0 {
		return
	}
	b.beforeWrite()
	src := other.data[:(m+7)/8]
	s := uint(b.n & 7)
	if s == 0 {
		b.data = append(b.data, src...)
		b.n += m
		return
	}
	base := b.n >> 3
	b.n += m
	b.grow((b.n + 7) / 8)
	dst := b.data
	k := 0
	// 64-bit lanes: shift eight source bytes at once and spill the carry
	// byte, while both the load and the spill stay in bounds.
	for ; k+8 <= len(src) && base+k+9 <= len(dst); k += 8 {
		v := binary.LittleEndian.Uint64(src[k:])
		lo := binary.LittleEndian.Uint64(dst[base+k:]) | v<<s
		binary.LittleEndian.PutUint64(dst[base+k:], lo)
		dst[base+k+8] |= byte(v >> (64 - s))
	}
	for ; k < len(src); k++ {
		v := src[k]
		dst[base+k] |= v << s
		if hi := v >> (8 - s); hi != 0 {
			dst[base+k+1] |= hi
		}
	}
}

// Slice returns the sub-buffer covering bits [from, to). The copy is
// drawn from the package pool, so callers on hot paths may Release it
// once the bits have been consumed.
func (b *Buffer) Slice(from, to int) (*Buffer, error) {
	if from < 0 || to > b.n || from > to {
		return nil, fmt.Errorf("bits: slice [%d,%d) out of range of %d bits", from, to, b.n)
	}
	m := to - from
	out := Get(m)
	out.grow((m + 7) / 8)
	out.n = m
	copyBits(out.data, b.data, from, m)
	return out, nil
}

// copyBits copies m bits of src starting at bit offset `from` into dst
// starting at bit 0, then masks the trailing partial byte of dst. The
// misaligned path runs 64 bits per iteration (one unaligned load, one
// shift, one carry byte) with a byte-granular tail.
func copyBits(dst, src []byte, from, m int) {
	if m == 0 {
		return
	}
	i := from >> 3
	s := uint(from & 7)
	nb := (m + 7) / 8
	if s == 0 {
		copy(dst, src[i:i+nb])
	} else {
		k := 0
		for ; k+8 <= nb && i+k+9 <= len(src); k += 8 {
			w := binary.LittleEndian.Uint64(src[i+k:]) >> s
			w |= uint64(src[i+k+8]) << (64 - s)
			binary.LittleEndian.PutUint64(dst[k:], w)
		}
		for ; k < nb; k++ {
			v := src[i+k] >> s
			if i+k+1 < len(src) {
				v |= src[i+k+1] << (8 - s)
			}
			dst[k] = v
		}
	}
	if m%8 != 0 {
		dst[nb-1] &= byte(1<<uint(m%8)) - 1
	}
}

// ZeroExtend grows the buffer to exactly n valid bits, padding with
// zeros. It is the receive-side primitive for assembling a stream whose
// total length is known up front: pre-extend, then OrRange each chunk
// into place.
func (b *Buffer) ZeroExtend(n int) {
	if n <= b.n {
		return
	}
	b.beforeWrite()
	b.n = n
	b.grow((n + 7) / 8)
}

// byteAt gathers up to `width` (≤ 8) bits of src starting at bit offset
// `from` into the low bits of a byte.
func byteAt(src []byte, from, width int) byte {
	i, s := from>>3, uint(from&7)
	v := src[i] >> s
	if s != 0 && i+1 < len(src) {
		v |= src[i+1] << (8 - s)
	}
	if width < 8 {
		v &= byte(1<<uint(width)) - 1
	}
	return v
}

// AppendRange appends bits [from, to) of src onto b — Append for a
// sub-range, without materialising an intermediate buffer. The copy runs
// a byte at a time.
func (b *Buffer) AppendRange(src *Buffer, from, to int) error {
	if from < 0 || to > src.n || from > to {
		return fmt.Errorf("bits: append range [%d,%d) out of range of %d bits", from, to, src.n)
	}
	m := to - from
	if m == 0 {
		return nil
	}
	b.beforeWrite()
	at := b.n
	b.n += m
	b.grow((b.n + 7) / 8)
	orBits(b.data, at, src.data, from, m)
	return nil
}

// OrRange ORs bits [from, to) of src into b at bit offset `at`, which
// must lie within b's valid range (see ZeroExtend). Bits already set in b
// stay set.
func (b *Buffer) OrRange(src *Buffer, from, to, at int) error {
	if from < 0 || to > src.n || from > to {
		return fmt.Errorf("bits: or range [%d,%d) out of range of %d bits", from, to, src.n)
	}
	m := to - from
	if at < 0 || at+m > b.n {
		return fmt.Errorf("bits: or range of %d bits at %d out of range of %d bits", m, at, b.n)
	}
	if m == 0 {
		return nil
	}
	b.beforeWrite()
	orBits(b.data, at, src.data, from, m)
	return nil
}

// orBits ORs m bits of src starting at bit `from` into dst starting at
// bit `at` — 64-bit lanes (unaligned gather, shift, unaligned scatter)
// with a byte-granular tail. Both offsets may be misaligned
// independently; callers guarantee m valid bits at `from` in src and
// at+m valid bits of room in dst, which is what keeps gather64 and
// scatterOr64 in bounds (see the invariant on Buffer).
func orBits(dst []byte, at int, src []byte, from, m int) {
	k := 0
	for ; k+64 <= m; k += 64 {
		scatterOr64(dst, at+k, gather64(src, from+k))
	}
	for ; k < m; k += 8 {
		width := m - k
		if width > 8 {
			width = 8
		}
		v := byteAt(src, from+k, width)
		if v == 0 {
			continue
		}
		pos := at + k
		i, s := pos>>3, uint(pos&7)
		dst[i] |= v << s
		if s != 0 {
			if hi := v >> (8 - s); hi != 0 {
				dst[i+1] |= hi
			}
		}
	}
}

// gather64 reads 64 bits of src at bit offset pos; all 64 bits must be
// within src.
func gather64(src []byte, pos int) uint64 {
	i, s := pos>>3, uint(pos&7)
	w := binary.LittleEndian.Uint64(src[i:])
	if s != 0 {
		w = w>>s | uint64(src[i+8])<<(64-s)
	}
	return w
}

// scatterOr64 ORs 64 bits into dst at bit offset pos; all 64 bits must
// land within dst.
func scatterOr64(dst []byte, pos int, w uint64) {
	i, s := pos>>3, uint(pos&7)
	if s == 0 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])|w)
		return
	}
	binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])|w<<s)
	dst[i+8] |= byte(w >> (64 - s))
}

// String renders the buffer as a 0/1 string, least-significant bit first.
func (b *Buffer) String() string {
	out := make([]byte, b.n)
	for i := 0; i < b.n; i++ {
		if b.data[i/8]&(1<<uint(i%8)) != 0 {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// Equal reports whether two buffers hold identical bit strings.
func (b *Buffer) Equal(other *Buffer) bool {
	if b.Len() != other.Len() {
		return false
	}
	// Trailing bits past n are zero on both sides (package invariant), so
	// byte equality is bit equality.
	return bytes.Equal(b.data, other.data)
}

func (b *Buffer) bit(i int) uint64 {
	return uint64(b.data[i/8]>>uint(i%8)) & 1
}

// bufPool recycles Buffer structs and their storage between rounds.
var bufPool = sync.Pool{New: func() interface{} { return new(Buffer) }}

// Get returns an empty buffer from the package pool with capacity for
// sizeHint bits. Pair with Release when the buffer's contents are no
// longer needed (a message may be Released as soon as Send returns: the
// engine has copied it).
func Get(sizeHint int) *Buffer {
	b := bufPool.Get().(*Buffer)
	if cap(b.data) < (sizeHint+7)/8 {
		b.data = make([]byte, 0, (sizeHint+7)/8)
	}
	return b
}

// Release resets b and returns it to the package pool. Frozen buffers
// are never pooled (readers may still hold them). Release of nil is a
// no-op.
func (b *Buffer) Release() {
	if b == nil || b.frozen {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// Reader consumes a Buffer from the front.
type Reader struct {
	buf *Buffer
	pos int
}

// emptyBuf backs readers over nil buffers; it is never written.
var emptyBuf = &Buffer{frozen: true}

// NewReader returns a reader positioned at the start of buf (a nil buf
// reads as empty). Reading does not modify buf. NewReader inlines, so a
// reader that does not escape its caller lives on the caller's stack.
func NewReader(buf *Buffer) *Reader {
	if buf == nil {
		buf = emptyBuf
	}
	return &Reader{buf: buf}
}

// Reset repoints the reader at the start of buf, allowing a stack- or
// struct-resident Reader value to be reused without allocation.
func (r *Reader) Reset(buf *Buffer) {
	if buf == nil {
		buf = emptyBuf
	}
	r.buf, r.pos = buf, 0
}

// Remaining reports how many unread bits remain.
func (r *Reader) Remaining() int { return r.buf.Len() - r.pos }

// Skip advances past n bits.
func (r *Reader) Skip(n int) error {
	if n < 0 || r.Remaining() < n {
		return ErrShortBuffer
	}
	r.pos += n
	return nil
}

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (uint64, error) {
	if r.Remaining() < 1 {
		return 0, ErrShortBuffer
	}
	v := r.buf.bit(r.pos)
	r.pos++
	return v, nil
}

// ReadUint consumes `width` bits written by WriteUint. The gather runs a
// byte at a time, not bit by bit.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bits: invalid width %d", width)
	}
	if r.Remaining() < width {
		return 0, ErrShortBuffer
	}
	if width == 0 {
		return 0, nil
	}
	off := r.pos
	r.pos += width
	d := r.buf.data
	i := off >> 3
	s := uint(off & 7)
	nb := (int(s) + width + 7) / 8
	var raw uint64
	stop := nb
	if stop > 8 {
		stop = 8
	}
	for k := 0; k < stop; k++ {
		raw |= uint64(d[i+k]) << (8 * uint(k))
	}
	v := raw >> s
	if nb > 8 {
		v |= uint64(d[i+8]) << (64 - s)
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	return v, nil
}

// ReadBool consumes one bit as a boolean.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadBit()
	return v != 0, err
}

// BitsetGet reads bit i of a flat []uint64 bitset (bit i lives in word
// i>>6). Shared by the dense gate-value stores of circuit and circsim.
func BitsetGet(s []uint64, i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

// BitsetSet sets bit i of a flat []uint64 bitset.
func BitsetSet(s []uint64, i int) { s[i>>6] |= 1 << uint(i&63) }

// UintWidth returns the number of bits needed to represent any value in
// [0, maxVal], i.e. ceil(log2(maxVal+1)), and at least 1.
func UintWidth(maxVal uint64) int {
	w := 1
	for maxVal > 1 {
		maxVal >>= 1
		w++
	}
	return w
}

// Mix64 is the splitmix64 finalizer (Steele et al., "Fast splittable
// pseudorandom number generators"): a bijection of uint64 in which every
// input bit flips each output bit with probability about 1/2. It is the
// repo's one bit mixer for values derived from a seed.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

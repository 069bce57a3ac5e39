// Package sketch implements linear graph sketches for the congested
// clique: seeded ℓ0-samplers over edge-incidence vectors in the style of
// Ahn, Guha and McGregor (SODA 2012), XOR-composable so that the merged
// sketch of a vertex set is exactly the sketch of its cut (internal edges
// cancel), plus the clique protocols built on them — Borůvka-style
// connected components, spanning-forest extraction with edge
// certificates, and minimum spanning forests by weight-class filtering
// (DESIGN.md §10).
//
// The samplers are deterministic in their seed: every player derives the
// same hash functions from the protocol seed, which is what makes the
// sketches mergeable across players and keeps both legs of the scenario
// matrix bit-identical.
package sketch

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bits"
)

// DefaultFpBits is the fingerprint width of a sampler cell: a false
// recovery (a multi-item cell masquerading as a singleton) survives the
// fingerprint test with probability about 2^-DefaultFpBits per cell.
const DefaultFpBits = 16

// Sampler is one seeded ℓ0-sampler over the universe [0, U): a
// linear sketch of a set S ⊆ [U] under symmetric difference. Toggle flips
// an item in and out of S (additions and removals are the same operation
// over GF(2)); Merge XORs two samplers, yielding the sampler of the
// symmetric difference of their sets; Recover returns some element of S,
// or fails with small probability.
//
// Layout: item i is subsampled into levels 0..tz(h(i)) (a geometric
// ladder, so some level holds Θ(1) items of any S). Each level keeps a
// one-sparse detector cell: the parity of the items present, the XOR of
// their ids and the XOR of their fingerprints. A cell holding exactly one
// item has parity 1, its id XOR names the item, and the fingerprint
// check fp(id) == fpXor verifies one-sparseness.
type Sampler struct {
	universe int
	levels   int
	fpBits   int
	seed     uint64
	par      []uint64 // parity per level (0 or 1)
	ids      []uint64 // XOR of item ids per level
	fps      []uint64 // XOR of item fingerprints per level
}

// SamplerLevels is the level count used for a universe of size u:
// one per halving of the universe, so the deepest level expects < 1 item.
func SamplerLevels(u int) int {
	if u < 1 {
		u = 1
	}
	return bits.UintWidth(uint64(u-1)) + 1
}

// IDBits is the wire width of an item id for a universe of size u.
func IDBits(u int) int {
	if u < 2 {
		return 1
	}
	return bits.UintWidth(uint64(u - 1))
}

// NewSampler returns an empty sampler over [0, universe) with the given
// fingerprint width, seeded so that samplers built from the same
// (universe, fpBits, seed) anywhere in the system are mergeable.
func NewSampler(universe, fpBits int, seed uint64) *Sampler {
	levels := checkSampler(universe, fpBits)
	s := samplerOver(make([]uint64, 3*levels), universe, fpBits, seed)
	return &s
}

// checkSampler validates a sampler's parameters and returns its level
// count.
func checkSampler(universe, fpBits int) int {
	if universe < 1 {
		panic(fmt.Sprintf("sketch: universe %d < 1", universe))
	}
	if fpBits < 1 || fpBits > 64 {
		panic(fmt.Sprintf("sketch: fingerprint width %d outside [1,64]", fpBits))
	}
	return SamplerLevels(universe)
}

// samplerOver returns a sampler whose cells are words, which must hold
// 3·SamplerLevels(universe) zero words: the parities, then the id XORs,
// then the fingerprint XORs, one word per level each.
func samplerOver(words []uint64, universe, fpBits int, seed uint64) Sampler {
	levels := len(words) / 3
	return Sampler{
		universe: universe,
		levels:   levels,
		fpBits:   fpBits,
		seed:     seed,
		par:      words[:levels:levels],
		ids:      words[levels : 2*levels : 2*levels],
		fps:      words[2*levels : 3*levels : 3*levels],
	}
}

// level returns the deepest level item i reaches: the number of trailing
// zeros of the item's hash, capped at the ladder depth.
func (s *Sampler) level(item uint64) int {
	h := bits.Mix64(s.seed ^ 0x9e3779b97f4a7c15*(item+1))
	l := 0
	for h&1 == 0 && l < s.levels-1 {
		h >>= 1
		l++
	}
	return l
}

// fingerprint hashes an item into fpBits bits with a seed independent of
// the level hash.
func (s *Sampler) fingerprint(item uint64) uint64 {
	h := bits.Mix64(s.seed ^ 0x517cc1b727220a95*(item+1) ^ 0xd1b54a32d192ed03)
	if s.fpBits < 64 {
		h &= 1<<uint(s.fpBits) - 1
	}
	return h
}

// Toggle flips item in or out of the sketched set. Toggling twice is a
// no-op: the sketch is linear over GF(2).
func (s *Sampler) Toggle(item uint64) {
	if item >= uint64(s.universe) {
		panic(fmt.Sprintf("sketch: item %d outside universe [0,%d)", item, s.universe))
	}
	lmax := s.level(item)
	fp := s.fingerprint(item)
	for l := 0; l <= lmax; l++ {
		s.par[l] ^= 1
		s.ids[l] ^= item
		s.fps[l] ^= fp
	}
}

// Merge XORs o into s, making s the sampler of the symmetric difference
// of the two sets. Both samplers must have been built from the same
// (universe, fpBits, seed).
func (s *Sampler) Merge(o *Sampler) {
	if s.universe != o.universe || s.fpBits != o.fpBits || s.seed != o.seed {
		panic("sketch: merging incompatible samplers")
	}
	bits.XorWords(s.par, o.par[:s.levels])
	bits.XorWords(s.ids, o.ids[:s.levels])
	bits.XorWords(s.fps, o.fps[:s.levels])
}

// IsZero reports whether the sketch is identically zero — true whenever
// the sketched set is empty, and false positives only when a non-empty
// set cancels in every cell (probability about 2^-(fpBits·levels)).
func (s *Sampler) IsZero() bool {
	for l := 0; l < s.levels; l++ {
		if s.par[l] != 0 || s.ids[l] != 0 || s.fps[l] != 0 {
			return false
		}
	}
	return true
}

// Recover returns an element of the sketched set. It scans the level
// ladder for a cell passing the one-sparseness tests: odd parity, a
// fingerprint matching the cell's id XOR, an id inside the universe, and
// level membership consistent with the id's own hash. Failure (ok=false)
// means no level isolated a single item — the recovery-failure band the
// protocols absorb by retrying with an independent sampler.
func (s *Sampler) Recover() (uint64, bool) {
	for l := 0; l < s.levels; l++ {
		if s.par[l] != 1 {
			continue
		}
		id := s.ids[l]
		if id >= uint64(s.universe) {
			continue
		}
		if s.fps[l] != s.fingerprint(id) {
			continue
		}
		if s.level(id) < l {
			continue
		}
		return id, true
	}
	return 0, false
}

// Clone returns an independent copy of s.
func (s *Sampler) Clone() *Sampler {
	out := NewSampler(s.universe, s.fpBits, s.seed)
	copy(out.par, s.par)
	copy(out.ids, s.ids)
	copy(out.fps, s.fps)
	return out
}

// Equal reports whether two samplers hold identical state.
func (s *Sampler) Equal(o *Sampler) bool {
	if s.universe != o.universe || s.fpBits != o.fpBits || s.seed != o.seed {
		return false
	}
	for l := 0; l < s.levels; l++ {
		if s.par[l] != o.par[l] || s.ids[l] != o.ids[l] || s.fps[l] != o.fps[l] {
			return false
		}
	}
	return true
}

// WireBits is the encoded size of one sampler: levels × (1 parity bit +
// id + fingerprint). The DESIGN.md §10 bit accounting builds on it.
func (s *Sampler) WireBits() int {
	return s.levels * (1 + IDBits(s.universe) + s.fpBits)
}

// Encode appends the sampler's cells to buf in level order.
func (s *Sampler) Encode(buf *bits.Buffer) {
	idW := IDBits(s.universe)
	for l := 0; l < s.levels; l++ {
		buf.WriteBit(s.par[l])
		buf.WriteUint(s.ids[l], idW)
		buf.WriteUint(s.fps[l], s.fpBits)
	}
}

// DecodeSampler reads one sampler encoded by Encode. The receiver must
// know the (universe, fpBits, seed) triple — seeds are derived from the
// protocol seed, never shipped.
func DecodeSampler(rd *bits.Reader, universe, fpBits int, seed uint64) (*Sampler, error) {
	s := NewSampler(universe, fpBits, seed)
	return s, s.mergeFromWire(rd) // XOR into zeroed cells is a decode
}

// mergeFromWire XORs a wire-encoded sampler into s without allocating a
// decode target — the hot path of leader aggregation.
func (s *Sampler) mergeFromWire(rd *bits.Reader) error {
	idW := IDBits(s.universe)
	for l := 0; l < s.levels; l++ {
		p, err := rd.ReadBit()
		if err != nil {
			return fmt.Errorf("sketch: truncated sampler: %w", err)
		}
		id, err := rd.ReadUint(idW)
		if err != nil {
			return fmt.Errorf("sketch: truncated sampler: %w", err)
		}
		fp, err := rd.ReadUint(s.fpBits)
		if err != nil {
			return fmt.Errorf("sketch: truncated sampler: %w", err)
		}
		s.par[l] ^= p
		s.ids[l] ^= id
		s.fps[l] ^= fp
	}
	return nil
}

// Stack is a node's sketch stack: `copies` independent samplers of the
// same set, one consumed per protocol phase so that every recovery query
// sees randomness independent of the merges it caused (the standard AGM
// fresh-sketch-per-phase scheme). The cells of every copy live in one
// word slab, copy q at words [3·levels·q, 3·levels·(q+1)), so a stack is
// two allocations whatever its depth, and the protocols recycle both
// through a package pool (see release).
type Stack struct {
	Samplers []Sampler
	words    []uint64
}

// stackPool recycles stacks, with their slabs, between protocol runs.
var stackPool sync.Pool

// stacksOut counts the stacks NewStack has handed out that release has
// not taken back; tests read it to check that a run returns its slabs.
var stacksOut atomic.Int64

// copySeed derives the shared seed of copy q from the protocol seed: all
// players must build copy q from the same hash functions for merging to
// be meaningful.
func copySeed(seed int64, salt uint64, q int) uint64 {
	return bits.Mix64(uint64(seed) ^ salt ^ 0xa0761d6478bd642f*uint64(q+1))
}

// NewStack builds an empty stack of `copies` samplers over [0, universe),
// with per-copy seeds derived from (seed, salt). Protocols use distinct
// salts for distinct logical vectors (e.g. one per weight class). The
// stack reuses a released one's storage when the pool has one, zeroed.
func NewStack(universe, fpBits, copies int, seed int64, salt uint64) *Stack {
	levels := checkSampler(universe, fpBits)
	st, _ := stackPool.Get().(*Stack)
	if st == nil {
		st = new(Stack)
	}
	stacksOut.Add(1)
	cells := 3 * levels
	if need := cells * copies; cap(st.words) < need {
		st.words = make([]uint64, need)
	} else {
		st.words = st.words[:need]
		clear(st.words)
	}
	if cap(st.Samplers) < copies {
		st.Samplers = make([]Sampler, copies)
	}
	st.Samplers = st.Samplers[:copies]
	for q := range st.Samplers {
		st.Samplers[q] = samplerOver(st.words[q*cells:(q+1)*cells:(q+1)*cells], universe, fpBits, copySeed(seed, salt, q))
	}
	return st
}

// release returns the stack to the pool. Neither it nor its samplers may
// be used afterwards.
func (st *Stack) release() {
	stacksOut.Add(-1)
	stackPool.Put(st)
}

// Toggle flips item in every copy.
func (st *Stack) Toggle(item uint64) {
	for q := range st.Samplers {
		st.Samplers[q].Toggle(item)
	}
}

// WireBitsFrom is the encoded size of copies from..end.
func (st *Stack) WireBitsFrom(from int) int {
	total := 0
	for q := from; q < len(st.Samplers); q++ {
		total += st.Samplers[q].WireBits()
	}
	return total
}

// EncodeFrom appends copies from..end to buf.
func (st *Stack) EncodeFrom(buf *bits.Buffer, from int) {
	for q := from; q < len(st.Samplers); q++ {
		st.Samplers[q].Encode(buf)
	}
}

// MergeWireFrom XORs wire-encoded copies from..end (as written by
// EncodeFrom with the same bound) into the stack.
func (st *Stack) MergeWireFrom(rd *bits.Reader, from int) error {
	for q := from; q < len(st.Samplers); q++ {
		if err := st.Samplers[q].mergeFromWire(rd); err != nil {
			return err
		}
	}
	return nil
}

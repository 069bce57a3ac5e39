package sketch

import (
	"math/rand"
	"testing"

	"repro/internal/bits"
	"repro/internal/graph"
)

// exactSet is the exact symmetric-difference oracle the sampler is
// verified against.
type exactSet map[uint64]bool

func (s exactSet) toggle(i uint64) {
	if s[i] {
		delete(s, i)
	} else {
		s[i] = true
	}
}

func TestSamplerAgainstExactOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		universe := 2 + rng.Intn(500)
		s := NewSampler(universe, DefaultFpBits, rng.Uint64())
		set := exactSet{}
		ops := rng.Intn(60)
		for k := 0; k < ops; k++ {
			it := uint64(rng.Intn(universe))
			s.Toggle(it)
			set.toggle(it)
		}
		if len(set) == 0 {
			if !s.IsZero() {
				t.Fatalf("trial %d: empty set but sketch nonzero", trial)
			}
			if _, ok := s.Recover(); ok {
				t.Fatalf("trial %d: recovered from empty set", trial)
			}
			continue
		}
		if s.IsZero() {
			t.Fatalf("trial %d: %d-item set but sketch is zero", trial, len(set))
		}
		if id, ok := s.Recover(); ok && !set[id] {
			t.Fatalf("trial %d: recovered %d not in the exact set", trial, id)
		}
	}
}

func TestSamplerRecoveryRate(t *testing.T) {
	// Recovery is allowed to fail (the protocols absorb it by stalling a
	// phase), but across independent seeds it must succeed far more often
	// than not — the stack-slack sizing rests on it. The single-cell
	// geometric ladder lands at ~70% over mixed set sizes; pin a floor a
	// little under that.
	rng := rand.New(rand.NewSource(11))
	const trials = 400
	ok := 0
	for trial := 0; trial < trials; trial++ {
		universe := 100
		s := NewSampler(universe, DefaultFpBits, rng.Uint64())
		m := 1 + rng.Intn(40)
		for _, it := range rng.Perm(universe)[:m] {
			s.Toggle(uint64(it))
		}
		if _, good := s.Recover(); good {
			ok++
		}
	}
	if ok < trials*13/20 {
		t.Fatalf("recovery succeeded %d/%d times; want >= 65%%", ok, trials)
	}
}

func TestSamplerMergeIsSymmetricDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		universe := 2 + rng.Intn(300)
		seed := rng.Uint64()
		a := NewSampler(universe, DefaultFpBits, seed)
		b := NewSampler(universe, DefaultFpBits, seed)
		direct := NewSampler(universe, DefaultFpBits, seed)
		setA, setB := exactSet{}, exactSet{}
		for k := 0; k < rng.Intn(40); k++ {
			it := uint64(rng.Intn(universe))
			a.Toggle(it)
			setA.toggle(it)
		}
		for k := 0; k < rng.Intn(40); k++ {
			it := uint64(rng.Intn(universe))
			b.Toggle(it)
			setB.toggle(it)
		}
		for it := range setA {
			if !setB[it] {
				direct.Toggle(it)
			}
		}
		for it := range setB {
			if !setA[it] {
				direct.Toggle(it)
			}
		}
		a.Merge(b)
		if !a.Equal(direct) {
			t.Fatalf("trial %d: merged sketch differs from direct symmetric-difference sketch", trial)
		}
	}
}

func TestSamplerWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		universe := 2 + rng.Intn(400)
		seed := rng.Uint64()
		s := NewSampler(universe, DefaultFpBits, seed)
		for k := 0; k < rng.Intn(30); k++ {
			s.Toggle(uint64(rng.Intn(universe)))
		}
		buf := bits.New(s.WireBits())
		s.Encode(buf)
		if buf.Len() != s.WireBits() {
			t.Fatalf("encoded %d bits, WireBits says %d", buf.Len(), s.WireBits())
		}
		got, err := DecodeSampler(bits.NewReader(buf), universe, DefaultFpBits, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(s) {
			t.Fatalf("trial %d: decode(encode(s)) != s", trial)
		}
		// mergeFromWire into an empty sampler is decode.
		viaMerge := NewSampler(universe, DefaultFpBits, seed)
		if err := viaMerge.mergeFromWire(bits.NewReader(buf)); err != nil {
			t.Fatal(err)
		}
		if !viaMerge.Equal(s) {
			t.Fatalf("trial %d: mergeFromWire != decode", trial)
		}
	}
}

// TestNeighborhoodDifference pins the AGM cut property the connectivity
// protocols rest on: XORing the incidence samplers of a vertex set
// yields exactly the sampler of the set's cut (internal edges cancel),
// verified against the exact cut computed from the graph.
func TestNeighborhoodDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(20)
		g := graph.Gnp(n, 0.3, rng)
		universe := EdgeUniverse(n)
		seed := rng.Uint64()

		side := make([]bool, n)
		for v := range side {
			side[v] = rng.Intn(2) == 0
		}
		merged := NewSampler(universe, DefaultFpBits, seed)
		for v := 0; v < n; v++ {
			if !side[v] {
				continue
			}
			s := NewSampler(universe, DefaultFpBits, seed)
			for _, u := range g.Neighbors(v) {
				s.Toggle(EdgeID(n, v, u))
			}
			merged.Merge(s)
		}
		want := NewSampler(universe, DefaultFpBits, seed)
		cut := 0
		for _, e := range g.Edges() {
			if side[e[0]] != side[e[1]] {
				want.Toggle(EdgeID(n, e[0], e[1]))
				cut++
			}
		}
		if !merged.Equal(want) {
			t.Fatalf("trial %d: merged incidence sketch != cut sketch", trial)
		}
		if cut == 0 {
			if !merged.IsZero() {
				t.Fatalf("trial %d: empty cut but nonzero sketch", trial)
			}
			continue
		}
		if id, ok := merged.Recover(); ok {
			u, v := EdgeEndpoints(n, id)
			if !g.HasEdge(u, v) || side[u] == side[v] {
				t.Fatalf("trial %d: recovered {%d,%d} is not a cut edge", trial, u, v)
			}
		}
	}
}

func TestEdgeIDRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 7, 16, 33} {
		next := uint64(0)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				id := EdgeID(n, u, v)
				if id != next {
					t.Fatalf("n=%d: EdgeID(%d,%d)=%d, want dense rank %d", n, u, v, id, next)
				}
				if id != EdgeID(n, v, u) {
					t.Fatalf("n=%d: EdgeID not symmetric on {%d,%d}", n, u, v)
				}
				gu, gv := EdgeEndpoints(n, id)
				if gu != u || gv != v {
					t.Fatalf("n=%d: EdgeEndpoints(%d) = (%d,%d), want (%d,%d)", n, id, gu, gv, u, v)
				}
				next++
			}
		}
		if int(next) != EdgeUniverse(n) {
			t.Fatalf("n=%d: ranked %d edges, universe %d", n, next, EdgeUniverse(n))
		}
	}
}

func TestStackShipRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	universe := 200
	a := NewStack(universe, DefaultFpBits, 8, 42, 1)
	b := NewStack(universe, DefaultFpBits, 8, 42, 1)
	for k := 0; k < 25; k++ {
		a.Toggle(uint64(rng.Intn(universe)))
		b.Toggle(uint64(rng.Intn(universe)))
	}
	from := 3
	buf := bits.New(a.WireBitsFrom(from))
	a.EncodeFrom(buf, from)
	if buf.Len() != a.WireBitsFrom(from) {
		t.Fatalf("encoded %d bits, WireBitsFrom says %d", buf.Len(), a.WireBitsFrom(from))
	}
	if err := b.MergeWireFrom(bits.NewReader(buf), from); err != nil {
		t.Fatal(err)
	}
	// Copies >= from must equal the direct XOR merge; copies < from must
	// be untouched. Compare the whole stack against a fresh replay.
	replayA := NewStack(universe, DefaultFpBits, 8, 42, 1)
	replayB := NewStack(universe, DefaultFpBits, 8, 42, 1)
	rng2 := rand.New(rand.NewSource(31))
	for k := 0; k < 25; k++ {
		replayA.Toggle(uint64(rng2.Intn(universe)))
		replayB.Toggle(uint64(rng2.Intn(universe)))
	}
	for q := 0; q < 8; q++ {
		want := replayB.Samplers[q].Clone()
		if q >= from {
			want.Merge(&replayA.Samplers[q])
		}
		if !b.Samplers[q].Equal(want) {
			t.Fatalf("copy %d: wire merge state wrong (from=%d)", q, from)
		}
	}
}

// TestStackReusesReleasedSlab: a stack built over a released stack's
// storage — deeper or shallower than the new one, holding other items —
// is zeroed first, so after the same toggles it equals samplers built
// from scratch, copy by copy.
func TestStackReusesReleasedSlab(t *testing.T) {
	const universe, seed, salt = 300, 9, 4
	rng := rand.New(rand.NewSource(12))
	items := make([]uint64, 40)
	for i := range items {
		items[i] = uint64(rng.Intn(universe))
	}
	reused := 0
	for _, prevCopies := range []int{12, 6, 6, 3} {
		for try := 0; try < 8; try++ {
			old := NewStack(universe, DefaultFpBits, prevCopies, seed+1, salt+1)
			for _, it := range items[:25] {
				old.Toggle((it + 1) % universe)
			}
			slab := &old.words[0]
			old.release()
			st := NewStack(universe, DefaultFpBits, 6, seed, salt)
			if &st.words[0] == slab {
				reused++
			}
			for _, it := range items {
				st.Toggle(it)
			}
			for q := range st.Samplers {
				fresh := NewSampler(universe, DefaultFpBits, copySeed(seed, salt, q))
				for _, it := range items {
					fresh.Toggle(it)
				}
				if !st.Samplers[q].Equal(fresh) {
					t.Fatalf("copy %d of a stack over a released %d-copy slab differs from a fresh sampler", q, prevCopies)
				}
			}
			st.release()
		}
	}
	if reused == 0 {
		t.Fatal("no stack reused a released slab; the test compared fresh stacks only")
	}
}

// TestAllocRegressionSketch is the allocation-regression budget wired
// into CI: the per-item and per-merge sampler operations must stay
// allocation-free — a node toggles one item per incident edge per copy
// and a leader merges O(n) samplers per phase.
func TestAllocRegressionSketch(t *testing.T) {
	s := NewSampler(1000, DefaultFpBits, 99)
	o := NewSampler(1000, DefaultFpBits, 99)
	o.Toggle(123)
	o.Toggle(777)
	if allocs := testing.AllocsPerRun(100, func() { s.Toggle(41) }); allocs > 0 {
		t.Errorf("Toggle: %.0f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Merge(o) }); allocs > 0 {
		t.Errorf("Merge: %.0f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Recover() }); allocs > 0 {
		t.Errorf("Recover: %.0f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.IsZero() }); allocs > 0 {
		t.Errorf("IsZero: %.0f allocs/op, want 0", allocs)
	}
	buf := bits.New(o.WireBits())
	o.Encode(buf)
	rd := bits.NewReader(buf)
	if allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(buf)
		if err := s.mergeFromWire(rd); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("mergeFromWire: %.0f allocs/op, want 0", allocs)
	}
}

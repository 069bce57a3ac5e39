package semiring

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestRunMMMatchesLocal pins both clique protocols against the local
// oracle product, for every backend, across cube-friendly and ragged
// player counts (27 is an exact cube, 12/20 are not, 7 < 8 degenerates
// the cube to c=1).
func TestRunMMMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sr := range Rings() {
		for _, n := range []int{5, 7, 12, 20, 27} {
			a := ringRandom(sr, n, n, rng)
			b := ringRandom(sr, n, n, rng)
			want := NaiveMul(sr, a, b)
			for _, proto := range []Protocol{Naive, Cube} {
				res, err := RunMM(core.Env{}, sr, a, b, proto, 32, 17, nil)
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", sr.Name(), proto, n, err)
				}
				if !res.Product.Equal(want) {
					t.Fatalf("%s/%s n=%d: product differs from local oracle", sr.Name(), proto, n)
				}
				if res.Stats.Rounds <= 0 || res.Stats.TotalBits <= 0 {
					t.Fatalf("%s/%s n=%d: empty accounting %+v", sr.Name(), proto, n, res.Stats)
				}
			}
		}
	}
}

// TestRunMMKernelChoiceInvariant checks the differential-harness property:
// swapping the local kernel (oracle triple loop vs blocked/packed) changes
// neither the product nor a single accounting bit.
func TestRunMMKernelChoiceInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sr := range Rings() {
		a := ringRandom(sr, 18, 18, rng)
		b := ringRandom(sr, 18, 18, rng)
		for _, proto := range []Protocol{Naive, Cube} {
			naive, err := RunMM(core.Env{}, sr, a, b, proto, 48, 5, NaiveKernel(sr))
			if err != nil {
				t.Fatal(err)
			}
			fast, err := RunMM(core.Env{}, sr, a, b, proto, 48, 5, Kernel(sr))
			if err != nil {
				t.Fatal(err)
			}
			if !naive.Product.Equal(fast.Product) {
				t.Fatalf("%s/%s: kernels disagree on the wire product", sr.Name(), proto)
			}
			if d := statsDelta(naive.Stats, fast.Stats); d != "" {
				t.Fatalf("%s/%s: kernel choice changed accounting: %s", sr.Name(), proto, d)
			}
		}
	}
}

// TestRunMMParallelismOracle is the §3 engine check scoped to this
// subsystem: the 4-worker engine must reproduce the sequential oracle's
// outputs and Stats bit for bit on both protocols.
func TestRunMMParallelismOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := ringRandom(MinPlus, 16, 16, rng)
	b := ringRandom(MinPlus, 16, 16, rng)
	for _, proto := range []Protocol{Naive, Cube} {
		seq, err := RunMM(core.Env{Parallelism: 1}, MinPlus, a, b, proto, 32, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunMM(core.Env{Parallelism: 4}, MinPlus, a, b, proto, 32, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !seq.Product.Equal(par.Product) {
			t.Fatalf("%s: parallel engine changed the product", proto)
		}
		if d := statsDelta(seq.Stats, par.Stats); d != "" {
			t.Fatalf("%s: parallel engine changed accounting: %s", proto, d)
		}
	}
}

// TestCubeBeatsNaiveBits pins the asymptotic mechanism of the cube
// partition at a size the unit suite can afford: at n=27 the routed
// protocol already moves far fewer total bits than row-broadcast
// (Θ(n^{7/3}·w) vs Θ(n³·w)); round superiority needs larger n and is
// measured by experiment E15.
func TestCubeBeatsNaiveBits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := ringRandom(MinPlus, 27, 27, rng)
	b := ringRandom(MinPlus, 27, 27, rng)
	nv, err := RunMM(core.Env{}, MinPlus, a, b, Naive, 64, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := RunMM(core.Env{}, MinPlus, a, b, Cube, 64, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Stats.TotalBits >= nv.Stats.TotalBits {
		t.Fatalf("cube moved %d bits, naive %d — the partition is not paying for itself",
			cb.Stats.TotalBits, nv.Stats.TotalBits)
	}
}

func TestCubeGeom(t *testing.T) {
	for n := 1; n <= 80; n++ {
		g := newCubeGeom(n)
		if g.c*g.c*g.c > n {
			t.Fatalf("n=%d: cube side %d overflows the player count", n, g.c)
		}
		if (g.c+1)*(g.c+1)*(g.c+1) <= n {
			t.Fatalf("n=%d: cube side %d is not maximal", n, g.c)
		}
		covered := 0
		for p := 0; p < g.c; p++ {
			lo, hi := g.part(p)
			if hi-lo > g.maxPart() {
				t.Fatalf("n=%d: part %d has %d rows > maxPart %d", n, p, hi-lo, g.maxPart())
			}
			for r := lo; r < hi; r++ {
				if g.block(r) != p {
					t.Fatalf("n=%d: block(%d) = %d, want %d", n, r, g.block(r), p)
				}
				covered++
			}
			// Sub-slices must tile the part exactly.
			subCovered := 0
			for k := 0; k < g.c; k++ {
				slo, shi := g.subslice(p, k)
				subCovered += shi - slo
			}
			if subCovered != hi-lo {
				t.Fatalf("n=%d: sub-slices of part %d cover %d of %d rows", n, p, subCovered, hi-lo)
			}
		}
		if covered != n {
			t.Fatalf("n=%d: parts cover %d rows", n, covered)
		}
	}
}

func TestRunMMRejectsBadShapes(t *testing.T) {
	if _, err := RunMM(core.Env{}, Boolean, NewMatrix(3, 4, 0), NewMatrix(4, 4, 0), Naive, 8, 1, nil); err == nil {
		t.Fatal("non-square A accepted")
	}
	if _, err := RunMM(core.Env{}, Boolean, NewMatrix(4, 4, 0), NewMatrix(3, 3, 0), Naive, 8, 1, nil); err == nil {
		t.Fatal("mismatched B accepted")
	}
	if _, err := RunMM(core.Env{}, Boolean, NewMatrix(4, 4, 0), NewMatrix(4, 4, 0), Protocol(99), 8, 1, nil); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// statsDelta mirrors the scenario runner's field-by-field Stats diff.
func statsDelta(a, b core.Stats) string {
	if a.Rounds != b.Rounds || a.Steps != b.Steps || a.TotalBits != b.TotalBits ||
		a.MaxLinkBits != b.MaxLinkBits || a.MaxNodeBits != b.MaxNodeBits || a.CutBits != b.CutBits {
		return "aggregate fields differ"
	}
	if len(a.NodeSentBits) != len(b.NodeSentBits) {
		return "NodeSentBits length differs"
	}
	for i := range a.NodeSentBits {
		if a.NodeSentBits[i] != b.NodeSentBits[i] {
			return "NodeSentBits differ"
		}
	}
	return ""
}

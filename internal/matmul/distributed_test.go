package matmul

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/f2"
)

func TestMulOnCliqueSchoolbook(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 8, 12} {
		a, b := f2.Random(n, rng), f2.Random(n, rng)
		res, err := MulOnClique(core.Env{}, a, b, Schoolbook, 0, 64, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Product.Equal(f2.Mul(a, b)) {
			t.Errorf("n=%d: distributed product differs", n)
		}
	}
}

func TestMulOnCliqueStrassen(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 8, 16} {
		a, b := f2.Random(n, rng), f2.Random(n, rng)
		res, err := MulOnClique(core.Env{}, a, b, Strassen, 2, 64, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Product.Equal(f2.Mul(a, b)) {
			t.Errorf("n=%d: distributed Strassen product differs", n)
		}
	}
}

func TestMulOnCliqueBandwidthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := f2.Random(8, rng), f2.Random(8, rng)
	res, err := MulOnClique(core.Env{}, a, b, Schoolbook, 0, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Stats.MaxLinkBits > 16 {
		t.Errorf("link load %d exceeds bandwidth", res.Run.Stats.MaxLinkBits)
	}
	if !res.Product.Equal(f2.Mul(a, b)) {
		t.Error("product differs under narrow bandwidth")
	}
}

func TestMulOnCliqueDimensionMismatch(t *testing.T) {
	if _, err := MulOnClique(core.Env{}, f2.New(4), f2.New(5), Schoolbook, 0, 16, 1); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

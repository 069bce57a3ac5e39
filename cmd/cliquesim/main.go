// Cliquesim runs a single congested clique algorithm on a generated input
// graph and reports the accounting: rounds, total bits, maximum per-link
// load, and the answer.
//
//	cliquesim -alg broadcast -n 64 -b 16 -p 0.2
//	cliquesim -alg dlp -n 64 -b 32 -plant 3
//	cliquesim -alg dlp-rand -n 64 -T 16
//	cliquesim -alg matmul -n 16 -family strassen
//	cliquesim -alg detect -pattern C4 -n 64
//	cliquesim -alg adaptive -pattern K3 -n 48
//	cliquesim -alg reconstruct -n 64 -k 4
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matmul"
	"repro/internal/subgraph"
	"repro/internal/triangles"
	"repro/internal/turan"
)

func main() {
	var (
		alg     = flag.String("alg", "broadcast", "broadcast | dlp | dlp-rand | matmul | detect | adaptive | reconstruct | c4congest")
		n       = flag.Int("n", 64, "number of players / graph vertices")
		b       = flag.Int("b", 16, "bandwidth in bits per link per round")
		p       = flag.Float64("p", 0.2, "G(n,p) edge probability")
		seed    = flag.Int64("seed", 1, "run seed")
		plant   = flag.Int("plant", 0, "number of planted triangles")
		promT   = flag.Int("T", 1, "promised triangle count (dlp-rand)")
		family  = flag.String("family", "schoolbook", "matmul family: schoolbook | strassen")
		pattern = flag.String("pattern", "C4", "pattern for detect/adaptive: K3 K4 K5 C4 C5 C6 P4 K22")
		k       = flag.Int("k", 2, "degeneracy parameter (reconstruct)")
		par     = flag.Int("parallelism", 0, "engine workers per round: 0 = GOMAXPROCS, 1 = sequential")
		batch   = flag.Bool("batch", false, "matmul: cross-check with the 64-lane bitsliced local detector")
	)
	flag.Parse()
	env := core.Env{Parallelism: max(*par, 0)}

	rng := rand.New(rand.NewSource(*seed))
	g := graph.Gnp(*n, *p, rng)
	for i := 0; i < *plant; i++ {
		graph.PlantCopy(g, graph.Complete(3), rng)
	}
	fmt.Printf("input: %v (degeneracy %d, triangles %d)\n", g, g.Degeneracy(), g.CountTriangles())

	var (
		found  bool
		stats  core.Stats
		note   string
		engine string // set by algorithms that run the circuit engine
	)
	switch *alg {
	case "broadcast":
		res, err := triangles.BroadcastDetect(env, g, *b, *seed)
		must(err)
		found, stats = res.Found, res.Stats
	case "dlp":
		res, err := triangles.DLPDeterministic(env, g, *b, *seed)
		must(err)
		found, stats = res.Found, res.Stats
	case "dlp-rand":
		res, err := triangles.DLPRandomized(env, g, *b, *promT, 6, *seed)
		must(err)
		found, stats = res.Found, res.Stats
		note = fmt.Sprintf(" (one-sided, promise T=%d)", *promT)
	case "matmul":
		fam := matmul.Schoolbook
		if *family == "strassen" {
			fam = matmul.Strassen
		}
		res, err := matmul.DetectTrianglesOnClique(env, g, fam, 8, 8, *b, *seed)
		must(err)
		found, stats = res.Found, res.Run.Stats
		note = fmt.Sprintf(" (§2.1 pipeline, %s circuits)", fam)
		engine = "scalar (dense plan)"
		if *batch {
			rng2 := rand.New(rand.NewSource(*seed + 1))
			bf, err := matmul.DetectTrianglesBatch(g, fam, 8, 64, core.ResolveParallelism(env.Parallelism), rng2)
			must(err)
			engine = fmt.Sprintf("bitsliced EvalBatch (64 Shamir lanes/pass): found=%v, agrees=%v", bf, bf == found)
		}
	case "detect":
		fam, err := familyByName(*pattern)
		must(err)
		res, err := subgraph.DetectKnownTuran(env, g, fam, *b, *seed)
		must(err)
		found, stats = res.Found, res.Stats
		note = fmt.Sprintf(" (Theorem 7, H=%s, k=%d)", fam.Name, res.KUsed)
	case "adaptive":
		fam, err := familyByName(*pattern)
		must(err)
		res, err := subgraph.DetectAdaptive(env, g, fam.H, *b, *seed)
		must(err)
		found, stats = res.Found, res.Stats
		note = fmt.Sprintf(" (Theorem 9, H=%s, %d guesses)", fam.Name, res.Guesses)
	case "reconstruct":
		res, err := subgraph.Reconstruct(env, g, *k, *b, *seed)
		must(err)
		found, stats = res.OK, res.Stats
		note = fmt.Sprintf(" (reconstruction success, %d-bit messages)", res.MsgBits)
	case "c4congest":
		res, err := subgraph.DetectC4Congest(env, g, *b, *k, *seed)
		must(err)
		found, stats = res.Found, res.Stats
		note = fmt.Sprintf(" (CONGEST neighborhood exchange, cap=%d)", *k)
	default:
		log.Fatalf("unknown algorithm %q", *alg)
	}

	fmt.Printf("answer: %v%s\n", found, note)
	fmt.Printf("rounds: %d\ntotal bits: %d\nmax link bits/round: %d\nmax node bits: %d\n",
		stats.Rounds, stats.TotalBits, stats.MaxLinkBits, stats.MaxNodeBits)
	if engine != "" {
		fmt.Printf("local eval engine: %s\n", engine)
	}
}

func familyByName(name string) (turan.Family, error) {
	switch name {
	case "K3":
		return turan.CliqueFamily(3), nil
	case "K4":
		return turan.CliqueFamily(4), nil
	case "K5":
		return turan.CliqueFamily(5), nil
	case "C4":
		return turan.CycleFamily(4), nil
	case "C5":
		return turan.CycleFamily(5), nil
	case "C6":
		return turan.CycleFamily(6), nil
	case "P4":
		return turan.TreeFamily("P4", graph.Path(4)), nil
	case "K22":
		return turan.BicliqueFamily(2, 2), nil
	default:
		return turan.Family{}, fmt.Errorf("unknown pattern %q", name)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/scenario"
	"repro/internal/sketch"
)

// E17FaultInjection exercises the fault-injection subsystem (DESIGN.md
// §11) end to end:
//
//	(a) the adversary is deterministic: the same fault plan against the
//	    same protocol yields bit-identical results at engine parallelism
//	    1 and 4 (faults are decided in the sequential delivery pass);
//	(b) the safety sweep: every fault model × rate × hardened protocol
//	    cell ends verified-correct or explicitly detected — zero silent
//	    divergences, the invariant the whole subsystem exists to uphold;
//	(c) recovery overhead: what the framed sketch stack pays in rounds
//	    and bits to absorb rising drop/corruption rates at n=64
//	    (machine-greppable E17RECORD lines; bench.sh folds n=64 in);
//	(d) ledger resume: a run interrupted mid-ledger completes to a
//	    report identical to the uninterrupted one.
func E17FaultInjection(w io.Writer, quick bool, env Env) error {
	header(w, "E17", "fault-injection adversary — determinism, safety sweep, recovery overhead, ledger resume")

	const bandwidth = 32

	// (a) Determinism across engine parallelism. The plan's factory goes
	// into the run's Env (exactly how the scenario harness hands it to
	// an engine leg) and the framed connectivity protocol runs under
	// parallelism 1 and 4: faults are decided per (round, src, dst) in
	// the sequential delivery pass, so every label, phase and bit of
	// accounting must match.
	nA := 24
	gA := graph.ComponentsGnp(nA, 2, 0.3, rand.New(rand.NewSource(170)))
	specA := fault.Spec{Drop: 0.01, Corrupt: 0.005}
	var runs [2]*sketch.CCResult
	for i, par := range []int{1, 4} {
		envA := core.Env{Parallelism: par, Faults: specA.Factory()}
		res, err := sketch.ConnectedComponents(envA, gA, sketch.DirectFramedAgg, bandwidth, 171)
		if err != nil {
			return fmt.Errorf("E17(a) parallelism %d: %w", par, err)
		}
		runs[i] = res
	}
	for v := range runs[0].Leader {
		if runs[0].Leader[v] != runs[1].Leader[v] {
			return fmt.Errorf("E17(a): labels diverge at vertex %d across parallelism", v)
		}
	}
	if runs[0].Phases != runs[1].Phases || runs[0].Stats.Rounds != runs[1].Stats.Rounds ||
		runs[0].Stats.TotalBits != runs[1].Stats.TotalBits {
		return fmt.Errorf("E17(a): accounting diverges across parallelism: %+v vs %+v",
			runs[0].Stats, runs[1].Stats)
	}
	fmt.Fprintf(w, "(a) n=%d %s under faults, parallelism 1 vs 4: comps=%d phases=%d rounds=%d bits=%d — bit-identical\n",
		nA, specA, runs[0].Components, runs[0].Phases, runs[0].Stats.Rounds, runs[0].Stats.TotalBits)

	// (b) The safety sweep: fault models × rates × the four hardened
	// protocols, each cell differentially checked against a clean-channel
	// oracle leg. The acceptance invariant is absolute: ok or detected,
	// never a silent divergence, never an infra failure.
	models := []struct {
		name string
		spec func(rate float64) fault.Spec
	}{
		{"drop", func(r float64) fault.Spec { return fault.Spec{Drop: r} }},
		{"corrupt", func(r float64) fault.Spec { return fault.Spec{Corrupt: r} }},
		{"delay", func(r float64) fault.Spec { return fault.Spec{Delay: r} }},
		{"dup", func(r float64) fault.Spec { return fault.Spec{Duplicate: r} }},
		{"mixed", func(r float64) fault.Spec { return fault.Spec{Drop: r / 2, Corrupt: r / 2, Delay: r} }},
	}
	rates := []float64{0, 0.01, 0.05}
	if quick {
		models = models[:2]
	}
	sweepMatrix := func() (*scenario.Matrix, error) {
		m := scenario.DefaultMatrix(true, 17)
		m.Sizes = []int{16}
		if err := m.FilterFamilies("gnp,components"); err != nil {
			return nil, err
		}
		if err := m.FilterProtocols("connectivity,spanforest,routing,apsp"); err != nil {
			return nil, err
		}
		return m, nil
	}
	fmt.Fprintf(w, "\n(b) safety sweep: models × rates × {connectivity, spanforest, routing, apsp}, n=16, both engines:\n")
	fmt.Fprintf(w, "%8s %6s %6s %4s %9s %9s %7s\n", "model", "rate", "cells", "ok", "detected", "diverged", "infra")
	for _, mod := range models {
		for _, rate := range rates {
			m, err := sweepMatrix()
			if err != nil {
				return err
			}
			rep, err := scenario.RunMatrixOpts(m, scenario.RunOptions{CellOptions: scenario.CellOptions{Faults: mod.spec(rate)}, Shards: 4})
			if err != nil {
				return fmt.Errorf("E17(b) %s rate=%g: %w", mod.name, rate, err)
			}
			s := rep.Summary
			ok := s.Cells - s.Divergences - s.Detected - s.Infra
			fmt.Fprintf(w, "%8s %6g %6d %4d %9d %9d %7d\n",
				mod.name, rate, s.Cells, ok, s.Detected, s.Divergences, s.Infra)
			if s.Divergences > 0 {
				for _, c := range rep.Divergent() {
					fmt.Fprintf(w, "    DIVERGED %s n=%d %s %s: %s\n", c.Family, c.N, c.Engine, c.Protocol, c.Divergence)
				}
				return fmt.Errorf("E17(b) %s rate=%g: %d silent divergences — safety invariant violated",
					mod.name, rate, s.Divergences)
			}
			if s.Infra > 0 {
				return fmt.Errorf("E17(b) %s rate=%g: %d infra failures", mod.name, rate, s.Infra)
			}
			if rate == 0 && s.Detected > 0 {
				return fmt.Errorf("E17(b) %s rate=0: %d detections on a clean channel", mod.name, s.Detected)
			}
		}
	}
	fmt.Fprintf(w, "(every faulted cell either recovered the exact fault-free answer or failed loudly; zero silent corruption)\n")

	// (c) Recovery overhead at n=64: the framed connectivity stack under
	// rising drop rates, against its own clean-channel run. The overhead
	// is what hardening costs when faults actually strike — extra frames
	// re-shipped, spare sketch copies burned, stalled phases re-proposed.
	nC := 64
	gC := graph.ComponentsGnp(nC, 3, 8.0/float64(nC), rand.New(rand.NewSource(172)))
	clean, err := sketch.ConnectedComponents(env.Engine, gC, sketch.DirectFramedAgg, bandwidth, 173)
	if err != nil {
		return fmt.Errorf("E17(c) clean: %w", err)
	}
	fmt.Fprintf(w, "\n(c) framed-connectivity recovery overhead, n=%d (clean: phases=%d rounds=%d bits=%d):\n",
		nC, clean.Phases, clean.Stats.Rounds, clean.Stats.TotalBits)
	for _, rate := range []float64{0.005, 0.01, 0.05} {
		envC := env.Engine
		envC.Faults = fault.Spec{Drop: rate}.Factory()
		res, err := sketch.ConnectedComponents(envC, gC, sketch.DirectFramedAgg, bandwidth, 173)
		outcome := "ok"
		rounds, bits, phases := 0, int64(0), 0
		overhead := 0.0
		if err != nil {
			// The contracted fallback: a loud, attributed failure (for
			// drops, typically stack exhaustion after too many lost
			// phases). Never a wrong answer.
			outcome = "detected"
		} else {
			for v := range res.Leader {
				if res.Leader[v] != clean.Leader[v] {
					return fmt.Errorf("E17(c) drop=%g: SILENT CORRUPTION — labels diverge at vertex %d", rate, v)
				}
			}
			rounds, bits, phases = res.Stats.Rounds, res.Stats.TotalBits, res.Phases
			overhead = float64(bits) / float64(clean.Stats.TotalBits)
		}
		fmt.Fprintf(w, "E17RECORD n=%d model=drop rate=%g outcome=%s phases=%d rounds=%d bits=%d clean_rounds=%d clean_bits=%d bit_overhead=%.3f\n",
			nC, rate, outcome, phases, rounds, bits, clean.Stats.Rounds, clean.Stats.TotalBits, overhead)
	}

	// (d) Ledger resume: run a faulted sweep to completion with a
	// ledger, replay the interrupt by keeping only the header and half
	// the entries, resume, and require identical outcomes cell for cell.
	dir, err := os.MkdirTemp("", "e17-ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mL, err := sweepMatrix()
	if err != nil {
		return err
	}
	if err := mL.FilterProtocols("connectivity,routing"); err != nil {
		return err
	}
	optL := scenario.RunOptions{CellOptions: scenario.CellOptions{Faults: fault.Spec{Drop: 0.02}}, Shards: 2}
	optL.Ledger = filepath.Join(dir, "full.jsonl")
	full, err := scenario.RunMatrixOpts(mL, optL)
	if err != nil {
		return fmt.Errorf("E17(d) full run: %w", err)
	}
	data, err := os.ReadFile(optL.Ledger)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	keep := lines[:1+(len(lines)-1)/2]
	optL.Ledger = filepath.Join(dir, "partial.jsonl")
	if err := os.WriteFile(optL.Ledger, []byte(strings.Join(keep, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	resumed, err := scenario.RunMatrixOpts(mL, optL)
	if err != nil {
		return fmt.Errorf("E17(d) resumed run: %w", err)
	}
	for i := range full.Cells {
		a, b := full.Cells[i], resumed.Cells[i]
		if a.Outcome != b.Outcome || a.Output != b.Output || a.Error != b.Error {
			return fmt.Errorf("E17(d): cell %d differs after resume: %+v vs %+v", i, a, b)
		}
	}
	fmt.Fprintf(w, "\n(d) ledger resume: %d cells, interrupted at %d ledgered — resumed report identical to the uninterrupted run\n",
		len(full.Cells), len(keep)-1)
	return nil
}

package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"

	"repro/internal/bits"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/sketch"
)

// E18RoundTracing exercises the observability layer (DESIGN.md §14):
//
//	(a) the tracer is an observer, not a participant: the Lenzen routing
//	    workload traced and untraced, at engine parallelism 1 and 4,
//	    yields bit-identical outputs and Stats, and the trace's
//	    deterministic record stream is itself identical across widths;
//	(b) reconciliation as a correctness gate: the summed round records
//	    of every traced run match the footer's authoritative Stats
//	    exactly (TotalBits, Rounds, Steps, MaxLinkBits, CutBits);
//	(c) per-phase profile of the routing protocol: where its rounds and
//	    bits go across the submit/spread/deliver phases of one epoch;
//	(d) per-phase profile of ℓ0-sketch connectivity: Borůvka phases
//	    interleaved with the Lenzen concentration's sub-phases
//	    (machine-greppable E18RECORD lines for trend tracking).
//
// Wall-clock fields are deliberately absent from the output: every line
// is a pure function of the inputs, so the experiment goldens.
func E18RoundTracing(w io.Writer, quick bool, env Env) error {
	header(w, "E18", "round tracing — zero-interference observer, Stats reconciliation, per-phase profiles")

	const bandwidth = 32
	n := 32
	if quick {
		n = 16
	}

	// (a)+(b) Traced vs untraced, across parallelism, on the routing
	// workload: every node ships one payload to each neighbor through
	// the Lenzen router and checks what arrives.
	g := graph.Gnp(n, 0.4, rand.New(rand.NewSource(180)))
	runRouteLeg := func(par int, sink core.Sink) (*core.Result, error) {
		rt := routing.NewRouter(n)
		cfg := core.Config{N: n, Bandwidth: bandwidth, Model: core.Unicast, Seed: 181, Parallelism: par, Sink: sink}
		return core.RunProcs(cfg, func(p *core.Proc) error {
			me := p.ID()
			out := make([]routing.Msg, 0, len(g.Neighbors(me)))
			for _, v := range g.Neighbors(me) {
				pl := bits.New(24)
				pl.WriteUint(uint64(me*n+v)&((1<<24)-1), 24)
				out = append(out, routing.Msg{Src: me, Dst: v, Payload: pl})
			}
			in, err := rt.Route(p, out, 24)
			if err != nil {
				return err
			}
			if len(in) != len(g.Neighbors(me)) {
				return fmt.Errorf("node %d: got %d messages, want %d", me, len(in), len(g.Neighbors(me)))
			}
			return nil
		})
	}

	var baseline *core.Result
	var baseTrace *obs.Trace
	for _, par := range []int{1, 4} {
		plain, err := runRouteLeg(par, nil)
		if err != nil {
			return fmt.Errorf("E18(a) untraced par=%d: %w", par, err)
		}
		rec := &obs.Recorder{}
		traced, err := runRouteLeg(par, rec)
		if err != nil {
			return fmt.Errorf("E18(a) traced par=%d: %w", par, err)
		}
		if d := statsEqual(plain.Stats, traced.Stats); d != "" {
			return fmt.Errorf("E18(a) par=%d: traced run diverges from untraced: %s", par, d)
		}
		tr := rec.Trace()
		if err := obs.Reconcile(tr); err != nil {
			return fmt.Errorf("E18(b) par=%d: %w", par, err)
		}
		if baseline == nil {
			baseline, baseTrace = plain, tr
		} else {
			if d := statsEqual(baseline.Stats, plain.Stats); d != "" {
				return fmt.Errorf("E18(a): accounting diverges across parallelism: %s", d)
			}
			if !tracesEqualDeterministic(baseTrace, tr) {
				return fmt.Errorf("E18(a): deterministic trace fields diverge across parallelism")
			}
		}
	}
	t := obs.Sum(baseTrace)
	fmt.Fprintf(w, "(a) routing n=%d traced vs untraced, parallelism 1 vs 4: rounds=%d bits=%d — bit-identical, trace identical\n",
		n, baseline.Stats.Rounds, baseline.Stats.TotalBits)
	fmt.Fprintf(w, "(b) reconcile: sum(sent_bits)=%d == Stats.TotalBits=%d; comm rounds=%d == Stats.Rounds=%d; max link=%d == Stats.MaxLinkBits=%d\n",
		t.SentBits, baseline.Stats.TotalBits, t.Rounds, baseline.Stats.Rounds, t.MaxLinkBits, baseline.Stats.MaxLinkBits)

	// (c) Per-phase routing profile from the node-0 Annotate marks the
	// router stamps (route:submit / route:spread / route:deliver).
	fmt.Fprintf(w, "\n(c) routing per-phase profile (n=%d, one Lenzen epoch):\n", n)
	fmt.Fprintf(w, "%16s %7s %7s %10s %9s\n", "phase", "rounds", "steps", "sent_bits", "max_link")
	for _, ph := range obs.Phases(baseTrace) {
		fmt.Fprintf(w, "%16s %7d %7d %10d %9d\n", ph.Name, ph.Rounds, ph.Steps, ph.SentBits, ph.MaxLinkBits)
	}

	// (d) Sketch connectivity under the tracer: Borůvka phase markers
	// interleaved with the router's sub-phases. The profile is folded
	// per Borůvka phase (each "boruvka:" mark opens a segment that
	// absorbs the routing sub-phases after it).
	gs := graph.ComponentsGnp(n, 2, 0.3, rand.New(rand.NewSource(182)))
	rec := &obs.Recorder{}
	envD := env.Engine
	envD.Sink = func(int64) core.Sink { return rec }
	res, err := sketch.ConnectedComponents(envD, gs, sketch.LenzenAgg, bandwidth, 183)
	if err != nil {
		return fmt.Errorf("E18(d): %w", err)
	}
	str := rec.Trace()
	if err := obs.Reconcile(str); err != nil {
		return fmt.Errorf("E18(d): %w", err)
	}
	fmt.Fprintf(w, "\n(d) sketch connectivity n=%d (lenzen agg): comps=%d phases=%d rounds=%d bits=%d\n",
		n, res.Components, res.Phases, res.Stats.Rounds, res.Stats.TotalBits)
	type seg struct {
		name          string
		rounds, steps int
		bits          int64
	}
	var segs []seg
	for _, ph := range obs.Phases(str) {
		if len(segs) == 0 || len(ph.Name) >= 8 && ph.Name[:8] == "boruvka:" {
			segs = append(segs, seg{name: ph.Name})
		}
		s := &segs[len(segs)-1]
		s.rounds += ph.Rounds
		s.steps += ph.Steps
		s.bits += ph.SentBits
	}
	fmt.Fprintf(w, "%28s %7s %7s %10s\n", "boruvka phase", "rounds", "steps", "sent_bits")
	for _, s := range segs {
		fmt.Fprintf(w, "%28s %7d %7d %10d\n", s.name, s.rounds, s.steps, s.bits)
		fmt.Fprintf(w, "E18RECORD n=%d workload=sketchcc phase=%q rounds=%d bits=%d\n", n, s.name, s.rounds, s.bits)
	}
	return nil
}

// statsEqual compares two Stats field by field, returning "" on equality.
func statsEqual(a, b core.Stats) string {
	if !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("%+v vs %+v", a, b)
	}
	return ""
}

// tracesEqualDeterministic compares two traces over the deterministic
// field set: meta (minus parallelism), every record with WallNs and
// Workers scrubbed, and the footer.
func tracesEqualDeterministic(a, b *obs.Trace) bool {
	ma, mb := a.Meta, b.Meta
	ma.Parallelism, mb.Parallelism = 0, 0
	if ma != mb {
		return false
	}
	if len(a.Rounds) != len(b.Rounds) {
		return false
	}
	for i := range a.Rounds {
		ra, rb := a.Rounds[i], b.Rounds[i]
		ra.WallNs, rb.WallNs = 0, 0
		ra.Workers, rb.Workers = nil, nil
		if !reflect.DeepEqual(ra, rb) {
			return false
		}
	}
	return reflect.DeepEqual(a.Footer, b.Footer)
}

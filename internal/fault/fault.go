// Package fault is the repo's deterministic adversary: a seeded fault
// plan that a run's core.Env.Faults builds and core consults on its
// delivery path.
//
// Every decision — drop, corrupt, delay, duplicate, crash — is a pure
// function of (seed, round, src, dst) resp. (seed, id), derived
// splitmix64-style with no shared state. Two consequences the rest of
// the stack leans on:
//
//   - Replayability: the same (Spec, seed) produces a bit-identical
//     fault schedule on every run, under every engine Parallelism and
//     harness shard count, because core consults the plan during its
//     sequential delivery pass and the answers depend only on message
//     position, never on wall time or evaluation order.
//   - Differential safety: the scenario runner's oracle and engine legs
//     share a cell seed, so both legs face the *same* adversary and any
//     divergence between them is a real robustness bug, not fault noise.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bits"
	"repro/internal/core"
)

// Spec declares per-message fault rates in [0,1] and the crash model.
// The zero Spec injects nothing.
type Spec struct {
	Drop      float64 `json:"drop,omitempty"`      // P(message lost)
	Corrupt   float64 `json:"corrupt,omitempty"`   // P(one bit flipped)
	Delay     float64 `json:"delay,omitempty"`     // P(delivery postponed)
	MaxDelay  int     `json:"max_delay,omitempty"` // delays uniform in [1,MaxDelay]; default 3
	Duplicate float64 `json:"dup,omitempty"`       // P(extra copy delivered late)
	Crash     float64 `json:"crash,omitempty"`     // P(node crash-stops), per node
	CrashBy   int     `json:"crash_by,omitempty"`  // crash round uniform in [0,CrashBy); default 16
}

// models is the one table of fault models: each model's name and its
// rate knob on Spec, in Models order. Models, ModelSpec, ParseSpec,
// String and Active all read it.
var models = []struct {
	name string
	rate func(*Spec) *float64
}{
	{"drop", func(s *Spec) *float64 { return &s.Drop }},
	{"corrupt", func(s *Spec) *float64 { return &s.Corrupt }},
	{"delay", func(s *Spec) *float64 { return &s.Delay }},
	{"dup", func(s *Spec) *float64 { return &s.Duplicate }},
	{"crash", func(s *Spec) *float64 { return &s.Crash }},
}

// rateOf returns the named model's rate knob on s, or an error naming
// the known models.
func rateOf(s *Spec, model string) (*float64, error) {
	for _, m := range models {
		if m.name == model {
			return m.rate(s), nil
		}
	}
	return nil, fmt.Errorf("fault: unknown model %q (have %s)", model, strings.Join(Models, ", "))
}

// Active reports whether the spec injects any fault at all. Inactive
// specs produce a nil plan so the engine keeps its zero-overhead path.
func (s Spec) Active() bool {
	for _, m := range models {
		if *m.rate(&s) > 0 {
			return true
		}
	}
	return false
}

// String renders the non-zero rates, e.g. "drop=0.05,crash=0.01" — used
// in ledger headers and experiment output.
func (s Spec) String() string {
	var parts []string
	for _, m := range models {
		if v := *m.rate(&s); v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", m.name, v))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// ParseSpec parses the String() syntax back into a Spec: a comma-joined
// list of rate assignments ("drop=0.05,corrupt=0.01"), optionally with
// the shape knobs maxdelay= and crashby=. "" and "none" parse to the
// zero Spec, so String() round-trips.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return Spec{}, fmt.Errorf("fault: bad spec element %q (want key=value)", part)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch key {
		case "maxdelay", "max_delay":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Spec{}, fmt.Errorf("fault: %s=%q is not a positive integer", key, val)
			}
			spec.MaxDelay = n
		case "crashby", "crash_by":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Spec{}, fmt.Errorf("fault: %s=%q is not a positive integer", key, val)
			}
			spec.CrashBy = n
		default:
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil || rate < 0 || rate > 1 {
				return Spec{}, fmt.Errorf("fault: %s=%q is not a rate in [0,1]", key, val)
			}
			knob, err := rateOf(&spec, key)
			if err != nil {
				return Spec{}, err
			}
			*knob = rate
		}
	}
	return spec, nil
}

// Models enumerates the single-fault-model sweep axis used by E17 and
// `scenariorun -faults`: each name maps one rate knob via ModelSpec.
var Models = func() []string {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.name
	}
	return names
}()

// ModelSpec builds the Spec that applies `rate` to exactly one fault
// model (a Models entry), leaving the others at zero.
func ModelSpec(model string, rate float64) (Spec, error) {
	var s Spec
	knob, err := rateOf(&s, model)
	if err != nil {
		return Spec{}, err
	}
	*knob = rate
	return s, nil
}

// Plan is a Spec bound to a seed: an immutable, concurrency-safe
// core.FaultInjector. All rate comparisons are precomputed into uint64
// thresholds so OnMessage is a handful of multiplies — zero allocations
// (pinned by TestAllocRegressionFault).
type Plan struct {
	spec     Spec
	seed     uint64
	dropT    uint64
	corruptT uint64
	delayT   uint64
	dupT     uint64
	crashT   uint64
	maxDelay int
	crashBy  int
}

var _ core.FaultInjector = (*Plan)(nil)

// New binds spec to seed. A plan built from an inactive spec is still
// usable but injects nothing; callers that want the engine's fast path
// should gate on spec.Active() and pass nil instead.
func New(spec Spec, seed int64) *Plan {
	p := &Plan{
		spec:     spec,
		seed:     bits.Mix64(uint64(seed) ^ 0x66616c745f706c6e), // "fault_pln"
		dropT:    threshold(spec.Drop),
		corruptT: threshold(spec.Corrupt),
		delayT:   threshold(spec.Delay),
		dupT:     threshold(spec.Duplicate),
		crashT:   threshold(spec.Crash),
		maxDelay: spec.MaxDelay,
		crashBy:  spec.CrashBy,
	}
	if p.maxDelay < 1 {
		p.maxDelay = 3
	}
	if p.crashBy < 1 {
		p.crashBy = 16
	}
	return p
}

// Spec returns the plan's fault specification.
func (p *Plan) Spec() Spec { return p.spec }

// Factory adapts the spec into core.Env.Faults's shape: each engine run
// gets its own Plan, built from its Config.Seed. An inactive spec
// returns nil (a clean channel), so callers can set s.Factory()
// untested.
func (s Spec) Factory() func(seed int64) core.FaultInjector {
	if !s.Active() {
		return nil
	}
	return func(seed int64) core.FaultInjector { return New(s, seed) }
}

// OnMessage decides the fate of the message staged on (round, src, dst).
// Each sub-decision consumes one draw from a per-message splitmix64
// stream, so enabling one fault model never shifts another model's
// schedule (the E17 ablation depends on this independence).
func (p *Plan) OnMessage(round, src, dst, nbits int) core.FaultAction {
	var a core.FaultAction
	x := absorb(absorb(absorb(p.seed, uint64(round)), uint64(src)), uint64(dst))
	if next(&x) < p.dropT {
		a.Drop = true
		return a
	}
	if next(&x) < p.corruptT && nbits > 0 {
		a.Corrupt = true
		a.CorruptBit = int(next(&x) % uint64(nbits))
	}
	if next(&x) < p.dupT {
		a.Duplicate = true
		a.DupDelay = 1 + int(next(&x)%uint64(p.maxDelay))
	}
	if next(&x) < p.delayT {
		a.Delay = 1 + int(next(&x)%uint64(p.maxDelay))
	}
	return a
}

// CrashRound reports the round at which node id crash-stops, or -1.
// Node 0 is exempt: every protocol in the repo designates it the
// leader/coordinator, and crash-stopping the coordinator models a
// different (and for now out-of-scope) failure class than losing a
// worker — the stall detector would catch it, but no protocol could
// ever succeed, which makes rate sweeps degenerate.
func (p *Plan) CrashRound(id int) int {
	if id == 0 {
		return -1
	}
	x := absorb(p.seed^0x6372617368, uint64(id)) // "crash"
	if next(&x) >= p.crashT {
		return -1
	}
	return int(next(&x) % uint64(p.crashBy))
}

// threshold maps a rate in [0,1] onto the uint64 scale so that
// `draw < threshold(rate)` fires with probability rate.
func threshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * float64(1<<63) * 2)
}

// absorb folds one coordinate into the stream state.
func absorb(state, v uint64) uint64 {
	return bits.Mix64(state ^ (v + 0x9e3779b97f4a7c15))
}

// next advances the splitmix64 stream and returns the next draw.
func next(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	return bits.Mix64(*x)
}

// Package scenario is the workload-matrix harness of the reproduction: a
// declarative sweep of graph families × sizes × engine configurations ×
// protocols, where every cell is executed twice — once on the sequential
// scalar oracle (engine Parallelism 1, gate-at-a-time local evaluation)
// and once on the engine configuration under test (parallel round engine,
// bitsliced local evaluation, the cell's bandwidth) — and the two legs'
// outputs and Stats are diffed bit-for-bit. The matrix is sharded across
// a worker pool (core.ParallelFor, the same primitive the round engine
// fans nodes out with) and the per-cell round/bandwidth/time accounting
// is aggregated into a machine-readable SCENARIOS_<date>.json (schema in
// DESIGN.md §8).
//
// The paper's claims are quantified over input families (Theorem 2 over
// b-separable circuits, Theorems 7/9 over H-free graph classes, the
// Section 3 constructions over adversarial instances); this package turns
// the hand-picked instances of E1–E14 into generated families at scale,
// and every cell it runs is a differential test of the two engines grown
// in PR 1 and PR 2.
package scenario

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// Family is one graph workload generator. Gen must be deterministic in
// (n, seed): both legs of a cell regenerate the instance independently,
// so generation itself is under differential test.
type Family struct {
	Name string
	Desc string
	Gen  func(n int, seed int64) *graph.Graph
}

// EngineConfig is the engine leg of a cell: the round-engine worker
// count, whether protocol-local reference evaluation runs on the
// bitsliced engine, and the link bandwidth b. Bandwidth is part of the
// problem instance, so the oracle leg inherits it; Parallelism and Batch
// are what the differential run varies.
type EngineConfig struct {
	Name        string `json:"name"`
	Parallelism int    `json:"parallelism"` // 0 = GOMAXPROCS
	Batch       bool   `json:"batch"`       // bitsliced local evaluation
	Bandwidth   int    `json:"bandwidth"`   // bits per link per round
}

// Leg tells a protocol adapter which side of the differential it is
// running: the oracle (sequential engine, scalar local evaluation) or the
// engine configuration under test. Faulty is set on BOTH legs of a
// faulted cell (CellOptions.Faults active): the adapter must pick its
// hardened protocol variant and emit a fault-stable output — one that is
// invariant under recovery detours (extra Borůvka phases, alternative
// but equally valid certificates) — while the adversary itself is only
// in the engine leg's Env. The oracle leg therefore runs the same
// hardened variant on a clean channel and defines the expected output.
type Leg struct {
	Oracle bool
	Batch  bool
	Faulty bool
	// Env is the engine environment the adapter hands every protocol
	// run: one worker on a clean channel for the oracle leg; for the
	// engine leg, the cell's resolved worker count, the run's adversary
	// and its trace sink.
	Env core.Env
}

// LegResult is one execution of a cell: a canonical, printable digest of
// the protocol's outputs (diffed verbatim between legs) plus the run's
// Stats (diffed field by field, including the per-node totals).
type LegResult struct {
	Output string
	Stats  core.Stats
}

// Protocol adapts one protocol under test to the matrix. Run must be
// deterministic in (g, bandwidth, seed) — the leg may only change which
// engine computes the answer, never the answer — and should return an
// error when an internal cross-check (ground truth, reconstruction
// equality) fails.
type Protocol struct {
	Name string
	Desc string
	Run  func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error)
}

// Matrix is a declarative scenario sweep; Expand turns it into cells.
type Matrix struct {
	Families  []Family
	Sizes     []int
	Engines   []EngineConfig
	Protocols []Protocol
	BaseSeed  int64
}

// Cell is one point of the expanded matrix.
type Cell struct {
	Family   Family
	N        int
	Engine   EngineConfig
	Protocol Protocol
	Seed     int64
}

// cellSeed derives a stable per-cell seed from the coordinates, so adding
// or reordering matrix dimensions does not silently reseed existing cells.
func cellSeed(base int64, family string, n int, engine, protocol string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|%s", family, n, engine, protocol)
	return base*1_000_000_007 + int64(h.Sum64()&0x7fffffffffff)
}

// Expand enumerates the full matrix in deterministic order:
// family-major, then size, then engine, then protocol.
func (m *Matrix) Expand() []Cell {
	cells := make([]Cell, 0, len(m.Families)*len(m.Sizes)*len(m.Engines)*len(m.Protocols))
	for _, f := range m.Families {
		for _, n := range m.Sizes {
			for _, e := range m.Engines {
				for _, p := range m.Protocols {
					cells = append(cells, Cell{
						Family:   f,
						N:        n,
						Engine:   e,
						Protocol: p,
						Seed:     cellSeed(m.BaseSeed, f.Name, n, e.Name, p.Name),
					})
				}
			}
		}
	}
	return cells
}

// DefaultMatrix is the standing scenario sweep: six graph families, three
// sizes, the two engine configurations (plain parallel, and parallel +
// bitsliced at double bandwidth; full mode adds a narrow-bandwidth
// 2-worker config), and the five protocols under test. Sizes are
// multiples of six so the Ruzsa–Szemerédi family hits the requested
// player count exactly.
func DefaultMatrix(quick bool, baseSeed int64) *Matrix {
	m := &Matrix{
		Families:  DefaultFamilies(),
		Sizes:     []int{12, 18, 24},
		Engines:   []EngineConfig{ParEngine, ParBatchEngine},
		Protocols: DefaultProtocols(),
		BaseSeed:  baseSeed,
	}
	if !quick {
		m.Sizes = []int{18, 24, 36}
		m.Engines = append(m.Engines, NarrowEngine)
	}
	return m
}

// FilterFamilies restricts the matrix to a comma-separated family subset.
func (m *Matrix) FilterFamilies(names string) error {
	return filterByName(&m.Families, names, "family", FamilyByName)
}

// FilterProtocols restricts the matrix to a comma-separated protocol subset.
func (m *Matrix) FilterProtocols(names string) error {
	return filterByName(&m.Protocols, names, "protocol", ProtocolByName)
}

// FilterEngines restricts the matrix to a comma-separated engine-config
// subset, resolved against the full standing set — so `-quick -engines
// par2-b16` deliberately pulls the narrow config into a quick sweep.
func (m *Matrix) FilterEngines(names string) error {
	return filterByName(&m.Engines, names, "engine config", EngineByName)
}

// filterByName replaces *dim with the comma-separated names resolved by
// byName, in the order given; "" keeps *dim as it is.
func filterByName[T any](dim *[]T, names, kind string, byName func(string) (T, bool)) error {
	if names == "" {
		return nil
	}
	*dim = (*dim)[:0]
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		v, ok := byName(name)
		if !ok {
			return fmt.Errorf("unknown %s %q", kind, name)
		}
		*dim = append(*dim, v)
	}
	return nil
}

// EngineByName resolves an engine configuration from the standing set
// (quick and full matrices combined).
func EngineByName(name string) (EngineConfig, bool) {
	for _, e := range []EngineConfig{ParEngine, ParBatchEngine, NarrowEngine} {
		if e.Name == name {
			return e, true
		}
	}
	return EngineConfig{}, false
}

// Coverage reports, per protocol, which engine configurations its cells
// run under and how many cells that is — the per-protocol engine-config
// coverage `scenariorun -list` prints. It aggregates over Expand rather
// than assuming the matrix is a full cross product, so it stays correct
// if the sweep ever becomes ragged. Output is sorted (protocols and
// engine names alphabetically) so the listing is deterministic and can
// be pinned by a golden test.
func (m *Matrix) Coverage() []string {
	type agg struct {
		engines map[string]bool
		cells   int
	}
	byProto := map[string]*agg{}
	order := []string{}
	for _, c := range m.Expand() {
		a := byProto[c.Protocol.Name]
		if a == nil {
			a = &agg{engines: map[string]bool{}}
			byProto[c.Protocol.Name] = a
			order = append(order, c.Protocol.Name)
		}
		a.engines[c.Engine.Name] = true
		a.cells++
	}
	sort.Strings(order)
	out := make([]string, 0, len(order))
	for _, name := range order {
		a := byProto[name]
		engines := make([]string, 0, len(a.engines))
		for e := range a.engines {
			engines = append(engines, e)
		}
		sort.Strings(engines)
		out = append(out, fmt.Sprintf("%-12s %d cells over engines %s",
			name, a.cells, strings.Join(engines, ", ")))
	}
	return out
}

// The standing engine configurations. Worker counts are pinned above 1
// (never "0 = GOMAXPROCS"): on a single-CPU box GOMAXPROCS would resolve
// to one worker and the parallel-vs-oracle differential would silently
// degenerate into sequential-vs-sequential — the same reason EA1(f) pins
// 4 workers for its oracle check.
var (
	// ParEngine exercises the parallel round engine alone.
	ParEngine = EngineConfig{Name: "par4", Parallelism: 4, Batch: false, Bandwidth: 32}
	// ParBatchEngine adds bitsliced local evaluation and a wider link.
	ParBatchEngine = EngineConfig{Name: "par4-batch-b64", Parallelism: 4, Batch: true, Bandwidth: 64}
	// NarrowEngine squeezes the same workloads through b=16 on 2 workers.
	NarrowEngine = EngineConfig{Name: "par2-b16", Parallelism: 2, Batch: false, Bandwidth: 16}
)

package main

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/scenariod"
)

// workload is one named input set of the benchmark. Local workloads run
// scenario.RunMatrixOpts in this process; the fleet workload submits the
// same kind of matrix slice to an in-process scenariod server drained by
// worker processes over loopback HTTP.
type workload struct {
	Name      string
	Why       string
	Protocols string // scenario protocol subset
	Faults    string // fault.ParseSpec syntax; "" = clean channel
	Fleet     bool
}

// engines are the quick matrix's two engine configurations; every
// workload runs both.
const engines = "par4,par4-batch-b64"

// pollEvery is how often an idle fleet worker asks for a lease. It only
// matters at the start of a run: a worker that finishes a cell leases
// the next one at once.
const pollEvery = 10 * time.Millisecond

var workloads = []workload{
	{
		Name:      "sketch",
		Why:       "the hot spot: sketch protocols run hundreds of rounds per cell, so per-round engine cost dominates",
		Protocols: "connectivity,spanforest,sketchmst",
	},
	{
		Name:      "few-rounds",
		Why:       "protocols of 1-123 rounds with wide broadcasts and heavy local references: local kernels dominate",
		Protocols: "apsp,khop,matpower,circuit,triangle,routing,hdetect,reconstruct",
	},
	{
		Name:      "fleet-faults",
		Why:       "the only path through scenariod (leases, HTTP, ledger, cache) and the only faulted path",
		Protocols: "connectivity,spanforest,routing,apsp",
		Faults:    "drop=0.01,corrupt=0.005",
		Fleet:     true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// spec is the workload's matrix slice at a seed, in the form a client
// submits to scenariod: the quick sizes over all nine families.
func (w workload) spec(seed int64) scenariod.RunSpec {
	return scenariod.RunSpec{
		Quick:     true,
		BaseSeed:  seed,
		Protocols: w.Protocols,
		Engines:   engines,
		Faults:    w.Faults,
	}
}

// matrix expands the workload's slice at a seed into the matrix a local
// run executes. The seed only enters through the matrix base seed, so
// the program receives nothing but the generated matrix.
func (w workload) matrix(seed int64) (*scenario.Matrix, error) {
	m, err := w.spec(seed).Matrix()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	return m, nil
}

// moduleOf names the protocol module a scenario protocol exercises; the
// per-layer <module>.* metrics are grouped by it.
var moduleOf = map[string]string{
	"connectivity": "sketch",
	"spanforest":   "sketch",
	"sketchmst":    "sketch",
	"apsp":         "semiring",
	"khop":         "semiring",
	"matpower":     "semiring",
	"circuit":      "circsim",
	"triangle":     "triangles",
	"routing":      "routing",
	"hdetect":      "subgraph",
	"reconstruct":  "subgraph",
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// traceFile is one engine-trace/v1 file that obs.DirSink archived.
type traceFile struct {
	Path   string
	Seed   int64 // the engine run's seed
	Repeat int   // the -<k> suffix: 0 for the first run with this seed
}

var traceNameRE = regexp.MustCompile(`^trace-s(-?\d+)(?:-(\d+))?\.ndjson$`)

// parseTraceName reads the seed and repeat index out of an archived
// trace's file name (trace-s<seed>.ndjson or trace-s<seed>-<k>.ndjson).
func parseTraceName(name string) (seed int64, repeat int, ok bool) {
	m := traceNameRE.FindStringSubmatch(name)
	if m == nil {
		return 0, 0, false
	}
	seed, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	if m[2] != "" {
		if repeat, err = strconv.Atoi(m[2]); err != nil {
			return 0, 0, false
		}
	}
	return seed, repeat, true
}

// mapTraces assigns every trace file in dir to the cell whose engine leg
// wrote it. A leg runs its protocol with seed cellSeed+1 and DirSink
// names the file by that seed, adding -<k> when one leg runs the engine
// again with the same seed; so a file belongs to the cell whose seed is
// one less than the file's. Files of each cell come back ordered by k.
// Names that match no cell are returned as unmapped.
func mapTraces(dir string, cellSeeds map[int64]bool) (map[int64][]traceFile, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return map[int64][]traceFile{}, nil, nil
		}
		return nil, nil, err
	}
	byCell := map[int64][]traceFile{}
	var unmapped []string
	for _, e := range entries {
		seed, k, ok := parseTraceName(e.Name())
		if e.IsDir() || !ok || !cellSeeds[seed-1] {
			unmapped = append(unmapped, e.Name())
			continue
		}
		byCell[seed-1] = append(byCell[seed-1], traceFile{Path: filepath.Join(dir, e.Name()), Seed: seed, Repeat: k})
	}
	for _, files := range byCell {
		sort.Slice(files, func(i, j int) bool { return files[i].Repeat < files[j].Repeat })
	}
	sort.Strings(unmapped)
	return byCell, unmapped, nil
}

// engineTotals folds a pass's engine traces into the counts and wall
// times the per-layer metrics are made of.
type engineTotals struct {
	Files     int
	Truncated int      // traces without a footer, all of detected cells
	Failures  []string // traces that failed the reconcile gate

	// Exact counts: deterministic fields of the records.
	Rounds, Steps, Delivered int64
	SentBits, RouteBits      int64
	Drops, Corruptions       int64

	// Wall times in the round loop (nondeterministic).
	LoopNs, RouteNs, BoruvkaNs int64
	CellLoopNs                 map[int64]int64 // by cell seed
}

// readTraces loads, reconciles and sums every trace of a pass. A trace
// without a footer is an engine run that failed; it is accepted only on
// a cell whose outcome is detected, where the failure is the contracted
// answer to a fault. Every other trace must pass obs.Reconcile.
func readTraces(dir string, outcomes map[int64]string) (*engineTotals, error) {
	seeds := make(map[int64]bool, len(outcomes))
	for s := range outcomes {
		seeds[s] = true
	}
	byCell, unmapped, err := mapTraces(dir, seeds)
	if err != nil {
		return nil, fmt.Errorf("reading traces: %w", err)
	}
	t := &engineTotals{CellLoopNs: map[int64]int64{}}
	for _, name := range unmapped {
		t.Failures = append(t.Failures, fmt.Sprintf("%s: matches no cell of the matrix", name))
	}
	cells := make([]int64, 0, len(byCell))
	for c := range byCell {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	for _, cell := range cells {
		for _, f := range byCell[cell] {
			tr, err := obs.LoadFile(f.Path)
			if err != nil {
				t.Failures = append(t.Failures, err.Error())
				continue
			}
			t.Files++
			if tr.Footer == nil && outcomes[cell] == scenario.OutcomeDetected {
				t.Truncated++
			} else if err := obs.Reconcile(tr); err != nil {
				t.Failures = append(t.Failures, fmt.Sprintf("%s: %v", filepath.Base(f.Path), err))
			}
			t.add(cell, tr)
		}
	}
	return t, nil
}

// summary says what the reconcile gate covered.
func (t *engineTotals) summary() string {
	return fmt.Sprintf("engine traces: %d read, %d checked by obs.Reconcile, %d without a footer on detected cells, %d failures",
		t.Files, t.Files-t.Truncated, t.Truncated, len(t.Failures))
}

func (t *engineTotals) add(cell int64, tr *obs.Trace) {
	sum := obs.Sum(tr)
	t.Rounds += int64(sum.Rounds)
	t.Steps += int64(sum.Steps)
	t.Delivered += int64(sum.Delivered)
	t.SentBits += sum.SentBits
	t.Drops += int64(sum.Faults.Drops)
	t.Corruptions += int64(sum.Faults.Corruptions)
	t.LoopNs += sum.WallNs
	t.CellLoopNs[cell] += sum.WallNs
	for _, p := range obs.Phases(tr) {
		switch {
		case strings.HasPrefix(p.Name, "route:"):
			t.RouteNs += p.WallNs
			t.RouteBits += p.SentBits
		case strings.HasPrefix(p.Name, "boruvka:"):
			t.BoruvkaNs += p.WallNs
		}
	}
}

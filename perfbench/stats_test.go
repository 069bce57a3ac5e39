package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10, shuffled
	for _, tc := range []struct {
		p            float64
		value        float64
		rank, beyond int
	}{
		{0.5, 5, 5, 5},
		{0.9, 9, 9, 1},
		{0.91, 10, 10, 0}, // ⌈9.1⌉ = 10
		{1, 10, 10, 0},
		{0.01, 1, 1, 9},
	} {
		q := nearestRank(xs, tc.p)
		if q.Value != tc.value || q.N != len(xs) || q.Rank != tc.rank || q.Beyond != tc.beyond {
			t.Errorf("nearestRank(p=%v) = %+v, want value %v rank %d beyond %d of %d",
				tc.p, q, tc.value, tc.rank, tc.beyond, len(xs))
		}
	}
	if xs[0] != 9 {
		t.Error("nearestRank reordered its input")
	}
	if q := nearestRank(nil, 0.5); q != (quantile{}) {
		t.Errorf("empty sample gives %+v, want the zero quantile", q)
	}
	// The highest percentile with ten samples beyond it: p90 of 100.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if q := nearestRank(hundred, 0.9); q.Value != 90 || q.Beyond != 10 {
		t.Errorf("p90 of 1..100 = %+v, want 90 with 10 beyond", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2 {
		t.Errorf("median of an even sample = %v, want the lower middle 2", m)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 110, End: 140}}, 70},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested children count once", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"children clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 260}}, 70},
		{"child outside the parent", []span{{Start: 300, End: 400}}, 100},
		{"children covering everything", []span{{Start: 100, End: 150}, {Start: 150, End: 200}}, 0},
	} {
		if got := selfNs(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfNs = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestShardUtil(t *testing.T) {
	for _, tc := range []struct {
		legNs  int64
		shards int
		wallNs int64
		want   float64
	}{
		{200, 2, 100, 1},    // both shards busy throughout
		{150, 2, 100, 0.75}, // a pass barrier idled a quarter of the capacity
		{100, 4, 100, 0.25},
		{100, 0, 100, 0}, // degenerate inputs read as no utilisation
		{100, 2, 0, 0},
	} {
		if got := shardUtil(tc.legNs, tc.shards, tc.wallNs); got != tc.want {
			t.Errorf("shardUtil(%d, %d, %d) = %v, want %v", tc.legNs, tc.shards, tc.wallNs, got, tc.want)
		}
	}
}

func TestParseTraceName(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		repeat int
		ok     bool
	}{
		{"trace-s42.ndjson", 42, 0, true},
		{"trace-s42-3.ndjson", 42, 3, true},
		{"trace-s-7.ndjson", -7, 0, true},
		{"trace-s-7-1.ndjson", -7, 1, true},
		{"trace-s42.json", 0, 0, false},
		{"trace-42.ndjson", 0, 0, false},
		{"report.json", 0, 0, false},
	} {
		seed, repeat, ok := parseTraceName(tc.name)
		if seed != tc.seed || repeat != tc.repeat || ok != tc.ok {
			t.Errorf("parseTraceName(%q) = %d, %d, %v; want %d, %d, %v",
				tc.name, seed, repeat, ok, tc.seed, tc.repeat, tc.ok)
		}
	}
}

func TestMapTracesBySeed(t *testing.T) {
	dir := t.TempDir()
	// Cell 100's engine leg ran the engine three times with seed 101,
	// cell 200's once; a file of seed 999 belongs to no cell.
	for _, name := range []string{
		"trace-s101-2.ndjson", "trace-s101.ndjson", "trace-s101-1.ndjson",
		"trace-s201.ndjson", "trace-s-4.ndjson", "trace-s999.ndjson", "notes.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	byCell, unmapped, err := mapTraces(dir, map[int64]bool{100: true, 200: true, -5: true})
	if err != nil {
		t.Fatal(err)
	}
	names := func(files []traceFile) []string {
		var out []string
		for _, f := range files {
			out = append(out, filepath.Base(f.Path))
		}
		return out
	}
	if got, want := names(byCell[100]), []string{"trace-s101.ndjson", "trace-s101-1.ndjson", "trace-s101-2.ndjson"}; !reflect.DeepEqual(got, want) {
		t.Errorf("cell 100 traces %v, want %v in repeat order", got, want)
	}
	if got, want := names(byCell[200]), []string{"trace-s201.ndjson"}; !reflect.DeepEqual(got, want) {
		t.Errorf("cell 200 traces %v, want %v", got, want)
	}
	if got, want := names(byCell[-5]), []string{"trace-s-4.ndjson"}; !reflect.DeepEqual(got, want) {
		t.Errorf("cell -5 traces %v, want %v", got, want)
	}
	if want := []string{"notes.txt", "trace-s999.ndjson"}; !reflect.DeepEqual(unmapped, want) {
		t.Errorf("unmapped %v, want %v", unmapped, want)
	}
	if byCell, unmapped, err := mapTraces(filepath.Join(dir, "absent"), nil); err != nil || len(byCell) != 0 || len(unmapped) != 0 {
		t.Errorf("a missing trace directory maps to %v, %v, %v; want nothing", byCell, unmapped, err)
	}
}

func TestWorkloadGeneration(t *testing.T) {
	for _, w := range workloads {
		a, err := w.matrix(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.matrix(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.matrix(8)
		if err != nil {
			t.Fatal(err)
		}
		ca, cb, cc := a.Expand(), b.Expand(), c.Expand()
		if len(ca) < 100 {
			t.Errorf("%s: %d cells; every workload needs at least 100 so its p90 has 10 samples beyond", w.Name, len(ca))
		}
		if len(ca) != len(cb) || len(ca) != len(cc) {
			t.Fatalf("%s: %d, %d and %d cells for seeds 7, 7 and 8", w.Name, len(ca), len(cb), len(cc))
		}
		seeds := map[int64]bool{}
		for i := range ca {
			if ca[i].Key() != cb[i].Key() {
				t.Errorf("%s: cell %d differs between two expansions at one seed: %s vs %s", w.Name, i, ca[i].Key(), cb[i].Key())
			}
			x, y := ca[i], cc[i]
			if x.Family.Name != y.Family.Name || x.N != y.N || x.Engine != y.Engine || x.Protocol.Name != y.Protocol.Name {
				t.Errorf("%s: cell %d changes shape with the seed: %s vs %s", w.Name, i, x.Key(), y.Key())
			}
			if x.Seed == y.Seed {
				t.Errorf("%s: cell %d keeps seed %d under another workload seed", w.Name, i, x.Seed)
			}
			if seeds[x.Seed] {
				t.Errorf("%s: cell seed %d repeats, so traces could not be mapped to cells", w.Name, x.Seed)
			}
			seeds[x.Seed] = true
			if moduleOf[x.Protocol.Name] == "" {
				t.Errorf("%s: protocol %s has no module", w.Name, x.Protocol.Name)
			}
		}
	}
}

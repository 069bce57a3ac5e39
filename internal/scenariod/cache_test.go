package scenariod

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/scenario"
)

// cacheFiles lists the entry files of a cache directory.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// countingGen wraps the gnp generator in the cache and counts how often
// the real generator runs.
func countingGen(t *testing.T, c *Cache) (gen func(n int, seed int64) *graph.Graph, calls *int) {
	t.Helper()
	f, ok := scenario.FamilyByName("gnp")
	if !ok {
		t.Fatal("no gnp family")
	}
	calls = new(int)
	return c.CachedGen("gnp", func(n int, seed int64) *graph.Graph {
		*calls++
		return f.Gen(n, seed)
	}), calls
}

// Any byte damage to a graph entry is a miss — the generator runs
// again, never a wrong graph — and the regenerated graph heals the slot.
func TestCacheCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen, calls := countingGen(t, c)
	want := gen(16, 5)
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want 1 entry file, got %d", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, mutate := range [][]byte{
		[]byte("not json at all"),
		append([]byte{}, data[:len(data)/2]...), // torn write
		func() []byte { // flipped payload byte: still valid JSON, wrong sum
			d := append([]byte{}, data...)
			d[bytes.LastIndexAny(d, "0123456789")] ^= 1
			return d
		}(),
	} {
		if err := os.WriteFile(files[0], mutate, 0o644); err != nil {
			t.Fatal(err)
		}
		if g := gen(16, 5); *calls != i+2 || !g.Equal(want) {
			t.Fatalf("damaged entry %q served as a hit", string(mutate[:min(20, len(mutate))]))
		}
		if g := gen(16, 5); *calls != i+2 || !g.Equal(want) {
			t.Fatal("slot did not heal after the regenerated put")
		}
	}
}

// CachedGen rebuilds the exact generated graph on a hit and falls back
// to the real generator when the entry is damaged.
func TestCachedGen(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen, calls := countingGen(t, c)

	g1 := gen(16, 5)
	g2 := gen(16, 5)
	if *calls != 1 {
		t.Fatalf("generator ran %d times, want 1 (second call cached)", *calls)
	}
	if !g1.Equal(g2) {
		t.Fatal("cached graph differs from generated graph")
	}
	// Corrupt every entry: the wrapper must recompute, not fail.
	for _, f := range cacheFiles(t, dir) {
		if err := os.WriteFile(f, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	g3 := gen(16, 5)
	if *calls != 2 {
		t.Fatalf("generator ran %d times, want 2 (corruption recomputes)", *calls)
	}
	if !g1.Equal(g3) {
		t.Fatal("recomputed graph differs")
	}
}

// A worker that runs the same spec twice against one cache directory
// runs both legs of every cell both times: every cell of the second run
// reports oracle time, the two canonical reports are byte-identical,
// and the directory holds graph entries only.
func TestCacheRerunRunsBothLegs(t *testing.T) {
	_, client := startServer(t, Config{})
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() {
		w := &Worker{Client: client, Name: "w0", Cache: cache, PollEvery: 10 * time.Millisecond}
		workerDone <- w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-workerDone
	}()

	var reports [2][]byte
	for pass := range reports {
		sub, err := client.Submit(tinySpec())
		if err != nil {
			t.Fatal(err)
		}
		var cells []scenario.CellResult
		err = client.Stream(sub.RunID, func(ev StreamEvent) error {
			if ev.Type == EventCell {
				cells = append(cells, *ev.Cell)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("pass %d: stream: %v", pass, err)
		}
		if len(cells) != sub.Cells {
			t.Fatalf("pass %d: stream delivered %d cells, want %d", pass, len(cells), sub.Cells)
		}
		for _, c := range cells {
			if c.OracleNs <= 0 {
				t.Errorf("pass %d: cell %s/%s reports oracle_ns %d: its oracle leg did not run", pass, c.Family, c.Protocol, c.OracleNs)
			}
		}
		rep, err := client.Report(sub.RunID)
		if err != nil {
			t.Fatal(err)
		}
		reports[pass] = marshalReport(t, rep)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("rerun report differs:\n first %s\nsecond %s", reports[0], reports[1])
	}

	files := cacheFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("the worker cached no graph")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var e cacheEntry
		if err := json.Unmarshal(data, &e); err != nil || !strings.HasPrefix(e.Key, "graph/") {
			t.Errorf("%s holds key %q (err %v), want a graph entry", filepath.Base(f), e.Key, err)
		}
	}
}

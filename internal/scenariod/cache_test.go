package scenariod

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func testCell(t *testing.T) scenario.Cell {
	t.Helper()
	c, err := scenario.CellFromNames("gnp", 12, "par4", "triangle", 777)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cacheFiles lists the entry files of a cache directory.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func TestCacheOracleRoundtrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := testCell(t)
	if _, ok := c.GetOracle(cell, false); ok {
		t.Fatal("hit on empty cache")
	}
	leg := scenario.CachedLeg{Output: "triangles=4", Edges: 31}
	leg.Stats.Rounds = 3
	c.PutOracle(cell, false, leg)
	got, ok := c.GetOracle(cell, false)
	if !ok || !reflect.DeepEqual(got, leg) {
		t.Fatalf("roundtrip: ok=%v got=%+v want=%+v", ok, got, leg)
	}
	// The faulty variant is a distinct address.
	if _, ok := c.GetOracle(cell, true); ok {
		t.Fatal("clean entry answered the faulty key")
	}
	// A different engine at equal bandwidth shares the oracle entry.
	other := cell
	eng, _ := scenario.EngineByName("par4")
	eng.Name, eng.Parallelism = "other-engine", 2
	other.Engine = eng
	if _, ok := c.GetOracle(other, false); !ok {
		t.Fatal("equal-bandwidth engine missed the shared oracle entry")
	}
}

// Any byte damage to an entry degrades to a miss — never a wrong leg —
// and the slot heals on the next put.
func TestCacheCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cell := testCell(t)
	c.PutOracle(cell, false, scenario.CachedLeg{Output: "x", Edges: 1})
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want 1 entry file, got %d", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range [][]byte{
		[]byte("not json at all"),
		append([]byte{}, data[:len(data)/2]...), // torn write
		func() []byte { d := append([]byte{}, data...); d[len(d)-10] ^= 0xff; return d }(), // flipped payload byte
	} {
		if err := os.WriteFile(files[0], mutate, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.GetOracle(cell, false); ok {
			t.Fatalf("corrupted entry %q served as a hit", string(mutate[:min(20, len(mutate))]))
		}
		c.PutOracle(cell, false, scenario.CachedLeg{Output: "x", Edges: 1})
		if got, ok := c.GetOracle(cell, false); !ok || got.Output != "x" {
			t.Fatal("slot did not heal after re-put")
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
	calls := 0
	real := func(n int, seed int64) *graph.Graph {
		calls++
		f, _ := scenario.FamilyByName("gnp")
		return f.Gen(n, seed)
	}
	gen := c.CachedGen("gnp", real)

	g1 := gen(16, 5)
	g2 := gen(16, 5)
	if calls != 1 {
		t.Fatalf("generator ran %d times, want 1 (second call cached)", calls)
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
	if calls != 2 {
		t.Fatalf("generator ran %d times, want 2 (corruption recomputes)", calls)
	}
	if !g1.Equal(g3) {
		t.Fatal("recomputed graph differs")
	}
}

// RunCell with a warm cache produces the identical classification with
// zero oracle wall time — the substance of the BENCH scenariod_cache claim.
func TestRunCellCacheEquivalence(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := testCell(t)
	cold := scenario.RunCell(cell, scenario.CellOptions{}, c)
	warm := scenario.RunCell(cell, scenario.CellOptions{}, c)
	bare := scenario.RunCell(cell, scenario.CellOptions{}, nil)
	for _, r := range []*scenario.CellResult{&cold, &warm, &bare} {
		r.OracleNs, r.EngineNs = 0, 0
	}
	if cold != warm || cold != bare {
		t.Fatalf("cache changed the result:\ncold=%+v\nwarm=%+v\nbare=%+v", cold, warm, bare)
	}
}

// TestCacheEvictionOldestFirst pins the -cache-max-bytes discipline:
// once the directory exceeds the bound, puts evict entries oldest-first
// until it fits, and the size/entry gauges land on a real /metrics
// scrape with the post-eviction values.
func TestCacheEvictionOldestFirst(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	// Three aged graph entries, then a fresh oracle entry.
	keys := []string{graphKey("gnp", 16, 1), graphKey("gnp", 16, 2), graphKey("gnp", 16, 3)}
	base := time.Now().Add(-time.Hour)
	for i, key := range keys {
		c.put(key, graphPayload{N: 16, Edges: [][2]int{{0, i + 1}}})
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(c.path(key), when, when); err != nil {
			t.Fatal(err)
		}
	}
	c.PutOracle(testCell(t), false, scenario.CachedLeg{Output: "x", Edges: 1})
	if _, byKind := c.Stats(); byKind["graph"] != 3 || byKind["oracle"] != 1 {
		t.Fatalf("pre-eviction entries: %v", byKind)
	}
	gInfo, err := os.Stat(c.path(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	oInfo, err := os.Stat(c.path(oracleKey(testCell(t), false)))
	if err != nil {
		t.Fatal(err)
	}
	gSize, oSize := gInfo.Size(), oInfo.Size()

	// Bound with room for the oracle plus 1.5 graph entries, then put a
	// fourth (newest) graph: the three aged graphs must go, oldest
	// first, while the fresh oracle and the new graph survive.
	c.SetMaxBytes(oSize + gSize + gSize/2)
	newest := graphKey("gnp", 16, 4)
	c.put(newest, graphPayload{N: 16, Edges: [][2]int{{0, 9}}})
	size, byKind := c.Stats()
	if byKind["oracle"] != 1 || byKind["graph"] != 1 {
		t.Fatalf("post-eviction entries = %v, want 1 oracle + 1 graph", byKind)
	}
	if _, err := os.Stat(c.path(newest)); err != nil {
		t.Fatal("newest graph entry evicted before older ones")
	}
	for _, key := range keys {
		if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
			t.Fatalf("aged entry %s survived eviction", key)
		}
	}

	// Real scrape: serve the registry over HTTP and read the gauges.
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		fmt.Sprintf("scenariod_cache_size_bytes %d", size),
		`scenariod_cache_entries{kind="graph"} 1`,
		`scenariod_cache_entries{kind="oracle"} 1`,
		"scenariod_cache_hits_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestCacheUnboundedNeverEvicts: the default (max 0) keeps everything.
func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.put(graphKey("gnp", 16, int64(i)), graphPayload{N: 16})
	}
	if _, byKind := c.Stats(); byKind["graph"] != 5 {
		t.Fatalf("unbounded cache evicted: %v", byKind)
	}
}

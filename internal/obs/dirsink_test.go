package obs

import (
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestDirSinkArchivesPerSeed drives the factory the way the scenario
// runners do, through a core.Env: several engine runs, one repeated
// seed, and checks the directory holds one reconciling trace file per
// run with the -<k> suffix on the recurrence. Each file is complete as
// soon as its run returns, before the archive closes: a long matrix
// holds open only the files of runs in progress.
func TestDirSinkArchivesPerSeed(t *testing.T) {
	dir := t.TempDir()
	ds := NewDirSink(dir)
	env := core.Env{Parallelism: 1, Sink: ds.Factory()}

	var want []*core.Result
	for _, seed := range []int64{11, 11, 12} {
		cfg := core.Config{N: 16, Bandwidth: 24, Model: core.Unicast, Seed: seed}
		res, err := core.RunProcs(env.Apply(cfg), gossipBody(6, 3))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	if ds.Count() != 3 {
		t.Fatalf("Count() = %d, want 3", ds.Count())
	}

	paths, err := filepath.Glob(filepath.Join(dir, "trace-*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	wantNames := []string{"trace-s11-1.ndjson", "trace-s11.ndjson", "trace-s12.ndjson"}
	if len(paths) != len(wantNames) {
		t.Fatalf("got %d trace files %v, want %d", len(paths), paths, len(wantNames))
	}
	for i, p := range paths {
		if filepath.Base(p) != wantNames[i] {
			t.Fatalf("file %d = %s, want %s", i, filepath.Base(p), wantNames[i])
		}
		tr, err := LoadFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := Reconcile(tr); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	// The repeated seed 11 produced identical runs: the suffixed file
	// must carry the same footer Stats as the first.
	a, err := LoadFile(filepath.Join(dir, "trace-s11.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadFile(filepath.Join(dir, "trace-s11-1.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Footer.Stats, b.Footer.Stats) {
		t.Fatalf("repeated-seed footers differ: %+v vs %+v", a.Footer.Stats, b.Footer.Stats)
	}
	if !reflect.DeepEqual(a.Footer.Stats, want[0].Stats) {
		t.Fatalf("archived footer %+v != run Stats %+v", a.Footer.Stats, want[0].Stats)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDirSinkLazyCreation pins that installing a DirSink that never
// sees a run creates nothing — no directory, no files, clean Close.
func TestDirSinkLazyCreation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "never-made")
	ds := NewDirSink(dir)
	if ds.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", ds.Count())
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close on empty sink: %v", err)
	}
	if paths, _ := filepath.Glob(filepath.Join(dir, "*")); len(paths) != 0 {
		t.Fatalf("empty DirSink created files: %v", paths)
	}
}

// TestRegistryHandler scrapes the registry over HTTP and checks the
// accessor methods the scenariod tests read through the text endpoint.
func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("Counter.Value = %d, want 3", c.Value())
	}
	r.Family("test_latency", "summary", "latency", func() []Sample {
		return []Sample{{Suffix: "_count", Value: 2}}
	})

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, line := range []string{
		"test_ops_total 3",
		"test_latency_count 2",
	} {
		if !strings.Contains(body, line+"\n") {
			t.Fatalf("scrape missing %q:\n%s", line, body)
		}
	}
}

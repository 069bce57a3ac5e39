package scenariod

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Cache is the content-addressed on-disk cache of the service: one file
// per entry under dir, named by the SHA-256 of the entry's logical key.
// Each file stores the key, the payload, and a SHA-256 of the payload
// bytes; reads verify both — a hash mismatch, a key collision, or any
// parse failure degrades to a cache miss and a recompute, never to a
// wrong oracle. Writes go through a temp file + rename so concurrent
// worker processes sharing a cache directory can never observe a torn
// entry as anything but a miss.
//
// Two entry kinds exist: generated graphs, keyed (family, n, seed), and
// oracle-leg outputs, keyed (family, n, seed, protocol, bandwidth,
// faulty). Engines share no oracle entry — the cell seed already hashes
// the engine name — so an oracle entry hits only when the same cell
// runs again (a requeued attempt, a resubmitted run); that re-run is
// what a warm cache cuts (the BENCH scenariod_cache record). On a cold
// pass the only hits are engine legs re-reading the graph their oracle
// leg just stored (cache hit ratio 0.333 on perfbench fleet-faults).
type Cache struct {
	dir          string
	hits, misses *obs.Counter // optional; see SetMetrics

	// maxBytes, when > 0, bounds the cache directory: every put that
	// leaves the directory over the bound evicts entries oldest-first
	// (by modification time) until it fits. evictMu serializes
	// in-process evictions; cross-process racers at worst re-delete.
	evictMu  sync.Mutex
	maxBytes int64
}

// SetMetrics attaches hit/miss counters (typically
// scenariod_cache_hits_total / scenariod_cache_misses_total on a
// worker's registry). Every verified read counts one or the other —
// corrupted or collided entries count as misses, matching their
// degrade-to-recompute semantics.
func (c *Cache) SetMetrics(hits, misses *obs.Counter) {
	c.hits, c.misses = hits, misses
}

// OpenCache opens (creating if needed) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenariod: cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// cacheEntry is the on-disk envelope.
type cacheEntry struct {
	Key     string          `json:"key"`
	Sum     string          `json:"sum"` // SHA-256 of Payload bytes
	Payload json.RawMessage `json:"payload"`
}

// path names an entry file: the entry kind (the key's "oracle"/"graph"
// prefix) in clear, then the SHA-256 of the full logical key. The kind
// prefix lets the size accounting classify entries from a directory
// listing alone, without opening files.
func (c *Cache) path(key string) string {
	h := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, kindOf(key)+"-"+hex.EncodeToString(h[:])+".json")
}

// kindOf extracts the entry kind from a logical key ("oracle/v1|..." →
// "oracle") or from an entry filename ("oracle-<hash>.json" → "oracle").
// Anything unrecognized — including entries written by older binaries,
// which named files by bare hash — is "unknown": unreadable by this
// binary, counted toward the size bound, evicted like everything else.
func kindOf(s string) string {
	if i := strings.IndexAny(s, "/-"); i > 0 {
		switch k := s[:i]; k {
		case "oracle", "graph":
			return k
		}
	}
	return "unknown"
}

// cacheFile is one entry in a directory scan.
type cacheFile struct {
	name    string
	size    int64
	modTime int64 // ns since epoch, for oldest-first ordering
}

// scan lists the cache's entry files (temp files excluded) with sizes
// and modification times. Failures degrade to an empty listing — the
// accounting is advisory, never a correctness dependency.
func (c *Cache) scan() []cacheFile {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil
	}
	files := make([]cacheFile, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, cacheFile{name: e.Name(), size: info.Size(), modTime: info.ModTime().UnixNano()})
	}
	return files
}

// Stats reports the cache directory's current footprint: total bytes
// and entry counts by kind. Computed from a directory listing at call
// time, so it stays truthful when several worker processes share the
// directory.
func (c *Cache) Stats() (sizeBytes int64, byKind map[string]int) {
	byKind = map[string]int{}
	for _, f := range c.scan() {
		sizeBytes += f.size
		byKind[kindOf(f.name)]++
	}
	return sizeBytes, byKind
}

// SetMaxBytes bounds the cache directory to n bytes (0 = unbounded).
// Enforced after every put by evicting entries oldest-first.
func (c *Cache) SetMaxBytes(n int64) {
	c.evictMu.Lock()
	c.maxBytes = n
	c.evictMu.Unlock()
}

// RegisterMetrics attaches the full cache metric inventory to reg: the
// hit/miss counters plus scrape-time gauges for directory size and
// per-kind entry counts.
func (c *Cache) RegisterMetrics(reg *obs.Registry) {
	c.SetMetrics(
		reg.Counter("scenariod_cache_hits_total", "verified cache reads"),
		reg.Counter("scenariod_cache_misses_total", "cache reads that fell through to recompute"),
	)
	reg.GaugeFunc("scenariod_cache_size_bytes", "total bytes of cache entry files on disk", func() float64 {
		size, _ := c.Stats()
		return float64(size)
	})
	for _, kind := range []string{"oracle", "graph"} {
		kind := kind
		reg.GaugeFunc(fmt.Sprintf("scenariod_cache_entries{kind=%q}", kind),
			"cache entry files on disk by kind", func() float64 {
				_, byKind := c.Stats()
				return float64(byKind[kind])
			})
	}
}

// enforceBound evicts entries oldest-first until the directory fits
// under maxBytes. Called after each put; a no-op when unbounded.
func (c *Cache) enforceBound() {
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	if c.maxBytes <= 0 {
		return
	}
	files := c.scan()
	total := int64(0)
	for _, f := range files {
		total += f.size
	}
	if total <= c.maxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].modTime != files[j].modTime {
			return files[i].modTime < files[j].modTime
		}
		return files[i].name < files[j].name
	})
	for _, f := range files {
		if total <= c.maxBytes {
			break
		}
		// A not-exist failure means a concurrent evictor got there
		// first — the bytes are gone either way.
		if err := os.Remove(filepath.Join(c.dir, f.name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			continue
		}
		total -= f.size
	}
}

// get loads and verifies an entry; any damage is a miss (and a
// best-effort removal, so the slot heals on the next put).
func (c *Cache) get(key string, out any) bool {
	ok := c.getVerified(key, out)
	switch {
	case ok && c.hits != nil:
		c.hits.Inc()
	case !ok && c.misses != nil:
		c.misses.Inc()
	}
	return ok
}

func (c *Cache) getVerified(key string, out any) bool {
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key {
		os.Remove(path)
		return false
	}
	sum := sha256.Sum256(e.Payload)
	if e.Sum != hex.EncodeToString(sum[:]) {
		os.Remove(path)
		return false
	}
	if err := json.Unmarshal(e.Payload, out); err != nil {
		os.Remove(path)
		return false
	}
	return true
}

// put stores an entry atomically; errors are swallowed — the cache is
// an accelerator, never a correctness dependency.
func (c *Cache) put(key string, v any) {
	payload, err := json.Marshal(v)
	if err != nil {
		return
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(cacheEntry{Key: key, Sum: hex.EncodeToString(sum[:]), Payload: payload})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	tmp.Close()
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	c.enforceBound()
}

// oracleKey addresses an oracle-leg execution. The oracle leg always
// runs the sequential scalar engine, so the key names the configuration
// only through bandwidth; the engine name still reaches it through the
// cell seed, so no two engines' cells share an entry.
func oracleKey(cell scenario.Cell, faulty bool) string {
	return fmt.Sprintf("oracle/v1|%s|%d|%d|%s|b%d|faulty=%t",
		cell.Family.Name, cell.N, cell.Seed, cell.Protocol.Name, cell.Engine.Bandwidth, faulty)
}

// GetOracle implements scenario.LegCache.
func (c *Cache) GetOracle(cell scenario.Cell, faulty bool) (scenario.CachedLeg, bool) {
	var leg scenario.CachedLeg
	ok := c.get(oracleKey(cell, faulty), &leg)
	return leg, ok
}

// PutOracle implements scenario.LegCache.
func (c *Cache) PutOracle(cell scenario.Cell, faulty bool, leg scenario.CachedLeg) {
	c.put(oracleKey(cell, faulty), leg)
}

// graphPayload is the serialized form of a generated instance.
type graphPayload struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

func graphKey(family string, n int, seed int64) string {
	return fmt.Sprintf("graph/v1|%s|%d|%d", family, n, seed)
}

// CachedGen wraps a family generator with the content-addressed graph
// cache: a verified hit rebuilds the instance from the stored edge
// list, a miss (including a corrupted entry) falls through to the real
// generator and stores its output. Generators are deterministic in
// (n, seed), so the rebuilt graph is the generated graph.
func (c *Cache) CachedGen(family string, gen func(n int, seed int64) *graph.Graph) func(n int, seed int64) *graph.Graph {
	return func(n int, seed int64) *graph.Graph {
		key := graphKey(family, n, seed)
		var p graphPayload
		if c.get(key, &p) && p.N == n {
			g := graph.New(p.N)
			for _, e := range p.Edges {
				g.AddEdge(e[0], e[1])
			}
			return g
		}
		g := gen(n, seed)
		c.put(key, graphPayload{N: g.N(), Edges: g.Edges()})
		return g
	}
}

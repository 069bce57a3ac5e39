package scenariod

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Cache is the worker's on-disk cache of generated graphs: one file per
// graph under dir, named by the SHA-256 of the entry's logical key
// (family, n, seed). Each file stores the key, the payload, and a
// SHA-256 of the payload bytes; reads verify both, so a hash mismatch,
// a key collision, or any parse failure is a miss and the generator
// runs again, never a wrong graph. Writes go through a temp file +
// rename, so worker processes sharing a directory can never observe a
// torn entry as anything but a miss.
//
// Only graphs are cached: both legs of every cell run on every worker.
// On a cold pass the only hits are engine legs re-reading the graph
// their oracle leg just stored (perfbench's fleet-faults reads this as
// scenariod.cache_hit_ratio, one hit per two lookups). The key carries
// no build identity, so a directory that outlives a generator change
// serves the old graphs; point a new build at a fresh directory.
type Cache struct {
	dir          string
	hits, misses *obs.Counter // optional; see SetMetrics
}

// SetMetrics attaches hit/miss counters. Every verified read counts one
// or the other; a damaged or collided entry counts as a miss, as it is
// one.
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

// path names an entry file by the SHA-256 of its logical key.
func (c *Cache) path(key string) string {
	h := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(h[:])+".json")
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
	}
}

// graphPayload is the serialized form of a generated instance.
type graphPayload struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

func graphKey(family string, n int, seed int64) string {
	return fmt.Sprintf("graph/v1|%s|%d|%d", family, n, seed)
}

// CachedGen wraps a family generator with the graph cache: a verified
// hit rebuilds the instance from the stored edge list, a miss
// (including a damaged entry) falls through to the real generator and
// stores its output. Generators are deterministic in (n, seed), so the
// rebuilt graph is the generated graph.
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

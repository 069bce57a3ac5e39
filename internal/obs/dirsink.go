package obs

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/core"
)

// DirSink archives every traced run under one directory: its Factory is
// the shape core.Env.Sink wants, and each engine run it sees becomes
// one engine-trace/v1 NDJSON file named by the run's seed
// (trace-s<seed>.ndjson, with -<k> suffixes if a seed recurs — e.g. a
// protocol that drives several engine executions in one leg, or a
// retry). Files are created lazily at TraceStart, so a
// DirSink costs nothing for code paths that never run the engine, and
// each is closed when its run writes the footer, so only runs in
// progress hold a file open. Close closes the files of runs that never
// finished and reports the first error of any file; call it only after
// all traced runs have finished (a leg abandoned by a timeout may still
// be writing, and its trace is best-effort anyway).
type DirSink struct {
	dir string

	mu    sync.Mutex
	seen  map[int64]int
	sinks []*FileSink
}

// NewDirSink returns a DirSink rooted at dir (created on first trace).
func NewDirSink(dir string) *DirSink {
	return &DirSink{dir: dir, seen: map[int64]int{}}
}

// Factory returns the per-run sink constructor to set as core.Env.Sink.
func (d *DirSink) Factory() func(seed int64) core.Sink {
	return func(seed int64) core.Sink {
		d.mu.Lock()
		defer d.mu.Unlock()
		k := d.seen[seed]
		d.seen[seed]++
		name := fmt.Sprintf("trace-s%d.ndjson", seed)
		if k > 0 {
			name = fmt.Sprintf("trace-s%d-%d.ndjson", seed, k)
		}
		s := NewFileSink(filepath.Join(d.dir, name))
		d.sinks = append(d.sinks, s)
		return s
	}
}

// Count returns how many traced runs the sink has seen so far.
func (d *DirSink) Count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sinks)
}

// Close flushes and closes every archived trace still open, returning
// the first error of any trace.
func (d *DirSink) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, s := range d.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

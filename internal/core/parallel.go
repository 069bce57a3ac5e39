package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// ResolveParallelism maps a requested worker count onto an effective one
// using the same rules as Config.Parallelism: 0 (or below) means
// runtime.GOMAXPROCS(0).
func ResolveParallelism(p int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return p
}

// PanicError is how ParallelFor re-raises a worker panic on the caller:
// the first panicking index (lowest, for determinism), the original panic
// value, and the worker's stack at the point of panic. Callers that
// recover a ParallelFor panic can unwrap it for all three.
type PanicError struct {
	Index int    // loop index whose fn panicked
	Value any    // the original panic value
	Stack []byte // worker stack captured at recover time
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("core: ParallelFor worker panicked at index %d: %v", p.Index, p.Value)
}

// ParallelFor runs fn(i) for every i in [0, n), fanned out over at most
// `workers` goroutines in contiguous chunks (worker g owns one chunk, so
// per-index work is never interleaved within a chunk). workers <= 1 runs
// the loop inline. It runs one dispatch on a fresh resident pool, the
// engine's round fan-out (workerPool), and closes it: right for one-shot
// fan-outs like the scenario runner's cell shards, where the goroutine
// spawns are paid once per run.
//
// A panicking fn does not kill the process from a bare worker goroutine:
// the panic is recovered, all workers drain, and the panic of the
// lowest-index failing call is re-raised on the caller as a *PanicError
// carrying the original value and the worker's stack. (A worker that
// panics abandons the rest of its chunk; the indices it skipped are not
// retried.)
func ParallelFor(workers, n int, fn func(i int)) {
	p := newWorkerPool(max(1, min(workers, n)))
	defer p.close()
	p.run(n, fn)
}

// poolTask is one contiguous chunk of a dispatched loop.
type poolTask struct {
	lo, hi int
	fn     func(i int)
}

// workerPool is the engine's resident round pool: workers are spawned
// once per Run and parked between rounds, so dispatching a round costs
// one channel send per worker instead of a goroutine spawn. Chunks are
// contiguous in index order, and the dispatching goroutine runs chunk 0
// itself so a pool of k workers keeps k CPUs busy with k-1 handoffs.
type workerPool struct {
	workers int
	tasks   chan poolTask
	wg      sync.WaitGroup
	mu      sync.Mutex
	first   *PanicError
}

// newWorkerPool starts workers-1 parked goroutines (the caller of run is
// the remaining worker). close must be called when the pool's owner is
// done, or the goroutines leak.
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{workers: workers, tasks: make(chan poolTask, workers)}
	for g := 1; g < workers; g++ {
		go func() {
			for t := range p.tasks {
				p.runChunk(t)
			}
		}()
	}
	return p
}

// runChunk executes one chunk under the pool's panic discipline:
// recover, record the lowest failing index, drain.
func (p *workerPool) runChunk(t poolTask) {
	i := t.lo
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			p.mu.Lock()
			if p.first == nil || i < p.first.Index {
				p.first = pe
			}
			p.mu.Unlock()
		}
		p.wg.Done()
	}()
	for ; i < t.hi; i++ {
		t.fn(i)
	}
}

// run executes fn(i) for every i in [0, n) across the pool and blocks
// until all chunks finish. The lowest-index worker panic is re-raised on
// the caller as a *PanicError after every worker drains; the pool stays
// usable afterwards. A pool of one worker, or a loop of one index, runs
// inline and lets a panic through raw.
func (p *workerPool) run(n int, fn func(i int)) {
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	spans := (n + chunk - 1) / chunk
	p.wg.Add(spans)
	for g := 1; g < spans; g++ {
		lo := g * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		p.tasks <- poolTask{lo: lo, hi: hi, fn: fn}
	}
	p.runChunk(poolTask{lo: 0, hi: chunk, fn: fn})
	p.wg.Wait()
	if p.first != nil {
		pe := p.first
		p.first = nil
		panic(pe)
	}
}

// close releases the pool's parked goroutines.
func (p *workerPool) close() { close(p.tasks) }

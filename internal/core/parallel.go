package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ResolveParallelism maps a requested round-pool width onto an effective
// one using the rule of Env.Parallelism: 0 (or below) means
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

// ParallelFor runs fn(i) for every i in [0, n) on at most `workers`
// goroutines, the caller among them; workers <= 1 runs the loop inline.
// It runs one dispatch on a fresh resident pool, the engine's round
// fan-out (workerPool), and closes it: right for one-shot fan-outs like
// the scenario runner's cell shards, where the goroutine spawns are paid
// once per run and each shard claims cells as it frees up.
//
// A panicking fn does not kill the process from a bare worker goroutine:
// each index recovers its own panic, so every index still runs exactly
// once, and the panic of the lowest-index failing call is re-raised on
// the caller as a *PanicError carrying the original value and the
// worker's stack.
func ParallelFor(workers, n int, fn func(i int)) {
	p := newWorkerPool(max(1, min(workers, n)))
	defer p.close()
	p.run(n, fn)
}

// workerPool is the engine's resident round pool: helpers are spawned
// once per Run and parked between rounds. The dispatching goroutine
// claims chunks of each dispatch from one atomic cursor until none is
// left, helpers that are awake claim from the same cursor, and the
// dispatcher blocks only on a chunk a helper has claimed and not yet
// finished. On a host whose CPUs are busy a round thus costs a few
// compare-and-swaps and no park; on an idle one helpers share the work.
type workerPool struct {
	workers int
	// cursor holds the dispatch's generation (high 32 bits) and next
	// unclaimed index (low 32 bits): a claim is a compare-and-swap, so
	// a helper holding an earlier generation claims nothing.
	cursor atomic.Uint64
	done   atomic.Int64 // indices finished, added once per worker
	// wake holds a token per helper, so a helper that is not parked
	// when a dispatch starts finds its token when it next parks. finish
	// carries the token of the helper whose add completes a dispatch.
	wake   chan struct{}
	finish chan struct{}
	mu     sync.Mutex // guards n, fn and first
	n      int
	fn     func(i int)
	first  *PanicError
}

// newWorkerPool starts workers-1 parked helpers (the caller of run is
// the remaining worker). close must be called when the pool's owner is
// done, or the goroutines leak.
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		workers: workers,
		wake:    make(chan struct{}, workers-1),
		finish:  make(chan struct{}, 1),
	}
	for g := 1; g < workers; g++ {
		go p.help()
	}
	return p
}

// run executes fn(i) for every i in [0, n) across the pool. The
// dispatcher claims chunk 0 before it wakes any helper, so chunk 0 runs
// on the caller. The lowest-index panic is re-raised on the caller as a
// *PanicError after the dispatch, and the pool stays usable. A pool of
// one worker, or a loop of one index, runs inline with raw panics.
func (p *workerPool) run(n int, fn func(i int)) {
	if p.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	hi := p.chunkEnd(0, n)
	p.mu.Lock()
	gen := uint32(p.cursor.Load()>>32) + 1
	p.n, p.fn = n, fn
	p.done.Store(0)
	p.cursor.Store(uint64(gen)<<32 | uint64(hi))
	p.mu.Unlock()
wake:
	for k := 1; k < min(p.workers, n); k++ {
		select {
		case p.wake <- struct{}{}:
		default:
			break wake // every helper already holds a token
		}
	}
	for i := 0; i < hi; i++ {
		p.call(fn, i)
	}
	if p.done.Add(int64(hi+p.work(gen, n, fn))) != int64(n) {
		<-p.finish
	}
	// A helper records its panics before its add to done, which the
	// dispatcher has now observed.
	if pe := p.first; pe != nil {
		p.first = nil
		panic(pe)
	}
}

// help is one helper: it claims chunks of the dispatch it wakes into
// and, if its add completes that dispatch, hands over the finish token.
func (p *workerPool) help() {
	for range p.wake {
		p.mu.Lock()
		gen, n, fn := uint32(p.cursor.Load()>>32), p.n, p.fn
		p.mu.Unlock()
		if ran := p.work(gen, n, fn); ran > 0 && p.done.Add(int64(ran)) == int64(n) {
			p.finish <- struct{}{}
		}
	}
}

// work runs claimed chunks of dispatch gen until none is left and
// returns how many indices it ran.
func (p *workerPool) work(gen uint32, n int, fn func(i int)) (ran int) {
	for {
		c := p.cursor.Load()
		lo := int(uint32(c))
		if uint32(c>>32) != gen || lo >= n {
			return ran
		}
		hi := p.chunkEnd(lo, n)
		if !p.cursor.CompareAndSwap(c, c+uint64(hi-lo)) {
			continue
		}
		for i := lo; i < hi; i++ {
			p.call(fn, i)
		}
		ran += hi - lo
	}
}

// chunkEnd ends the chunk starting at lo: max(1, (n−lo)/(2·workers))
// indices, shrinking to single indices at the tail (guided
// self-scheduling). Boundaries are the same whoever claims them.
func (p *workerPool) chunkEnd(lo, n int) int {
	return lo + max(1, (n-lo)/(2*p.workers))
}

// call runs fn(i), keeping a panic as the dispatch's PanicError if its
// index is the lowest so far, so the rest of the chunk still runs.
func (p *workerPool) call(fn func(i int), i int) {
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			p.mu.Lock()
			if p.first == nil || i < p.first.Index {
				p.first = pe
			}
			p.mu.Unlock()
		}
	}()
	fn(i)
}

// close releases the pool's parked helpers.
func (p *workerPool) close() { close(p.wake) }

package core

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForPanicPropagates is the regression test for the bare
// goroutine panic: a panicking worker used to kill the whole process;
// now each index recovers its own panic, every index still runs, and the
// lowest failing index is re-raised on the caller as a *PanicError
// carrying the original value and the worker stack.
func TestParallelForPanicPropagates(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		var ran atomic.Int64
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate to the caller", workers)
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *PanicError", workers, r)
				}
				if pe.Value != "boom 3" {
					t.Errorf("workers=%d: panic value %v, want the lowest index's (boom 3)", workers, pe.Value)
				}
				if pe.Index != 3 {
					t.Errorf("workers=%d: panic index %d, want 3", workers, pe.Index)
				}
				if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "ParallelFor") {
					t.Errorf("workers=%d: captured stack does not mention ParallelFor", workers)
				}
				if !strings.Contains(pe.Error(), "index 3") {
					t.Errorf("workers=%d: Error() = %q", workers, pe.Error())
				}
			}()
			ParallelFor(workers, 64, func(i int) {
				ran.Add(1)
				// Two indices panic; the lowest must win. Index 3 lies in
				// chunk 0, which the caller runs, for every workers value
				// tried, and the last index in a later chunk.
				if i == 3 || i == 63 {
					panic("boom " + string(rune('0'+i%10)))
				}
			})
		}()
		// A panic ends only its own index: the rest of its chunk ran.
		if got := ran.Load(); got != 64 {
			t.Fatalf("workers=%d: %d of 64 indices ran", workers, got)
		}
	}
}

// TestParallelForInlinePanic pins the workers<=1 path: the panic surfaces
// raw (no goroutine involved, nothing to wrap).
func TestParallelForInlinePanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "inline" {
			t.Fatalf("recovered %v, want raw panic value", r)
		}
	}()
	ParallelFor(1, 4, func(i int) {
		if i == 2 {
			panic("inline")
		}
	})
}

// TestParallelForNoPanic pins the happy path after the recover wrapping:
// every index runs exactly once.
func TestParallelForNoPanic(t *testing.T) {
	var sum atomic.Int64
	ParallelFor(4, 100, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 4950 {
		t.Fatalf("sum = %d, want 4950", got)
	}
}

// TestParallelForExactlyOnce is the coverage property: for every
// (workers, n) boundary shape — workers > n, n = 0, chunk-remainder
// shapes, degenerate widths — each index in [0, n) is called exactly
// once, with no extras.
func TestParallelForExactlyOnce(t *testing.T) {
	workerShapes := []int{0, 1, 2, 3, 4, 7, 8, 16, 100}
	nShapes := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100, 257}
	for _, workers := range workerShapes {
		for _, n := range nShapes {
			counts := make([]atomic.Int32, n+1) // +1 guards against i == n
			ParallelFor(workers, n, func(i int) {
				if i < 0 || i >= n {
					t.Errorf("workers=%d n=%d: index %d out of range", workers, n, i)
					return
				}
				counts[i].Add(1)
			})
			for i := 0; i < n; i++ {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times, want 1", workers, n, i, c)
				}
			}
		}
	}
}

// TestParallelForAllPanicLowestWins saturates the panic path: when every
// index panics, the re-raised PanicError must carry index 0, the
// minimum over every recorded failure.
func TestParallelForAllPanicLowestWins(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		for _, n := range []int{2, 7, 64} {
			func() {
				defer func() {
					pe, ok := recover().(*PanicError)
					if !ok || pe.Index != 0 {
						t.Errorf("workers=%d n=%d: recovered %v, want PanicError at index 0", workers, n, pe)
					}
				}()
				ParallelFor(workers, n, func(i int) { panic(i) })
			}()
		}
	}
}

// TestWorkerPoolExactlyOnce runs the resident pool over the same
// boundary grid as ParallelFor, reusing one pool across every dispatch —
// the engine's actual usage pattern (thousands of run calls per pool).
func TestWorkerPoolExactlyOnce(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		p := newWorkerPool(workers)
		for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 9, 16, 17, 64, 257} {
			counts := make([]atomic.Int32, n+1)
			p.run(n, func(i int) {
				if i < 0 || i >= n {
					t.Errorf("workers=%d n=%d: index %d out of range", workers, n, i)
					return
				}
				counts[i].Add(1)
			})
			for i := 0; i < n; i++ {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times, want 1", workers, n, i, c)
				}
			}
		}
		p.close()
	}
}

// TestWorkerPoolPanicAndReuse pins the pool's panic discipline: every
// index runs, the lowest-index panic is re-raised as a *PanicError after
// the dispatch, and the pool remains fully usable for later dispatches.
func TestWorkerPoolPanicAndReuse(t *testing.T) {
	p := newWorkerPool(4)
	defer p.close()
	var ran atomic.Int64
	func() {
		defer func() {
			pe, ok := recover().(*PanicError)
			if !ok {
				t.Fatalf("recovered %T, want *PanicError", recover())
			}
			if pe.Index != 5 {
				t.Errorf("panic index %d, want 5 (lowest of 5 and 61)", pe.Index)
			}
		}()
		p.run(64, func(i int) {
			ran.Add(1)
			if i == 5 || i == 61 {
				panic(i)
			}
		})
	}()
	if got := ran.Load(); got != 64 {
		t.Fatalf("%d of 64 indices ran", got)
	}
	// The pool must have cleared its panic state and still work.
	var sum atomic.Int64
	p.run(100, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 4950 {
		t.Fatalf("post-panic dispatch sum = %d, want 4950", got)
	}
}

// TestWorkerPoolHelpersTakeWork checks that a dispatch is not run by the
// dispatcher alone. fn(0), in the chunk the dispatcher runs, parks until
// fn(7) has run, so a helper must take index 7 while the dispatcher
// waits; a pool whose dispatcher ran every index would wait out the
// timeout. One CPU is enough: the parked dispatcher frees it.
func TestWorkerPoolHelpersTakeWork(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, workers := range []int{2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				p := newWorkerPool(workers)
				defer p.close()
				ran7 := make(chan struct{})
				var timedOut atomic.Bool
				p.run(8, func(i int) {
					switch i {
					case 0:
						select {
						case <-ran7:
						case <-time.After(10 * time.Second):
							timedOut.Store(true)
						}
					case 7:
						close(ran7)
					}
				})
				if timedOut.Load() {
					t.Errorf("GOMAXPROCS=%d workers=%d: fn(7) had not run 10 s into fn(0)", procs, workers)
				}
			}()
		}
	}
}

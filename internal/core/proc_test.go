package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bits"
)

// Tests for the coroutine-backed Proc surface (DESIGN.md §16): every body
// a run leaves parked is unwound before RunProcs returns, and a body
// panic becomes that node's error instead of escaping to the engine.

// goroutinesAfter polls runtime.NumGoroutine until ok accepts a reading
// or five seconds pass, and returns the last reading. The engine's pool
// workers exit asynchronously after the pool closes, so a single read
// right after RunProcs returns could still count them.
func goroutinesAfter(ok func(prev, cur int) bool) int {
	deadline := time.Now().Add(5 * time.Second)
	prev := runtime.NumGoroutine()
	for {
		time.Sleep(5 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if ok(prev, cur) || time.Now().After(deadline) {
			return cur
		}
		prev = cur
	}
}

// TestProcGoroutinesJoined pins the join-on-early-return rule: a run that
// ends while bodies are parked in Next or Rounds — a node error, a body
// panic, ErrRoundLimit, ErrStalled — must unwind every parked body (their
// deferred calls run) and leave no goroutine behind, at the sequential
// width and under the worker pool.
func TestProcGoroutinesJoined(t *testing.T) {
	const n, runs = 16, 10
	cases := []struct {
		name    string
		cfg     Config
		body    func(p *Proc) error
		wantErr func(error) bool
	}{
		{
			name: "failed",
			cfg:  Config{N: n, Bandwidth: 8, Model: Broadcast},
			body: func(p *Proc) error {
				for p.ID() != 2 || p.Round() < 3 {
					p.Next()
				}
				return errors.New("boom")
			},
			wantErr: func(err error) bool { return strings.Contains(err.Error(), "node 2") },
		},
		{
			name: "failed-while-parked-in-Rounds",
			cfg:  Config{N: n, Bandwidth: 8, Model: Unicast},
			body: func(p *Proc) error {
				if p.ID() == 2 {
					for p.Round() < 3 {
						p.Next()
					}
					return errors.New("boom")
				}
				var m bits.Buffer
				return p.Rounds(100, func(r int) error {
					m.Reset()
					m.WriteUint(uint64(r), 8)
					return p.Send((p.ID()+1)%p.N(), &m)
				}, nil)
			},
			wantErr: func(err error) bool { return strings.Contains(err.Error(), "node 2") },
		},
		{
			name: "panicking",
			cfg:  Config{N: n, Bandwidth: 8, Model: Broadcast},
			body: func(p *Proc) error {
				for p.ID() != 2 || p.Round() < 3 {
					p.Next()
				}
				panic("boom")
			},
			wantErr: func(err error) bool { return strings.Contains(err.Error(), "core: node body panic") },
		},
		{
			name: "round-limited",
			cfg:  Config{N: n, Bandwidth: 8, Model: Unicast, MaxRounds: 6},
			body: func(p *Proc) error {
				var m bits.Buffer
				for {
					m.Reset()
					m.WriteUint(uint64(p.ID()), 8)
					if err := p.Broadcast(&m); err != nil {
						return err
					}
					p.Next()
				}
			},
			wantErr: func(err error) bool { return errors.Is(err, ErrRoundLimit) },
		},
		{
			name: "stalled",
			cfg:  Config{N: n, Bandwidth: 8, Model: Unicast, Env: Env{Faults: func(int64) FaultInjector { return idlePlan{} }}},
			body: func(p *Proc) error {
				for {
					p.Next()
				}
			},
			wantErr: func(err error) bool { return errors.Is(err, ErrStalled) },
		},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, par), func(t *testing.T) {
				// Baseline: the count once the previous case's pool
				// workers have exited (two equal readings in a row).
				base := goroutinesAfter(func(prev, cur int) bool { return cur == prev })
				var unwound atomic.Int64
				cfg := tc.cfg
				cfg.Parallelism = par
				for r := 0; r < runs; r++ {
					_, err := RunProcs(cfg, func(p *Proc) error {
						defer unwound.Add(1)
						return tc.body(p)
					})
					if err == nil || !tc.wantErr(err) {
						t.Fatalf("run %d: err = %v", r, err)
					}
				}
				if got := unwound.Load(); got != runs*n {
					t.Errorf("%d bodies exited, want all %d", got, runs*n)
				}
				delta := goroutinesAfter(func(_, cur int) bool { return cur <= base }) - base
				t.Logf("%d failed runs: goroutine delta %d", runs, delta)
				if delta > 0 {
					t.Errorf("%d goroutines left behind by %d failed runs, want 0", delta, runs)
				}
			})
		}
	}
}

// TestProcBodyPanic pins body-panic semantics: node 3 panics in round 3
// while the others keep gossiping. RunProcs must return node 3's
// "core: node body panic" error carrying the panic value and the body's
// stack; nothing is re-raised on the caller (not even a *PanicError from
// the worker pool) and the process does not crash.
func TestProcBodyPanic(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", par), func(t *testing.T) {
			cfg := Config{N: 8, Bandwidth: 8, Model: Unicast, Seed: 5, Env: Env{Parallelism: par}}
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("RunProcs re-raised %T: %v", r, r)
					}
				}()
				_, err = RunProcs(cfg, func(p *Proc) error {
					var m bits.Buffer
					for r := 0; r < 10; r++ {
						if p.ID() == 3 && p.Round() == 3 {
							panic("boom at round 3")
						}
						m.Reset()
						m.WriteUint(uint64(p.Round()), 8)
						if err := p.Broadcast(&m); err != nil {
							return err
						}
						p.Next()
					}
					return nil
				})
			}()
			if err == nil {
				t.Fatal("RunProcs returned nil, want node 3's panic error")
			}
			msg := err.Error()
			for _, want := range []string{
				"core: node 3 failed in round 3",
				"core: node body panic: boom at round 3",
				"TestProcBodyPanic", // the body's stack, captured inside the coroutine
			} {
				if !strings.Contains(msg, want) {
					t.Errorf("error lacks %q:\n%s", want, msg)
				}
			}
			var pe *PanicError
			if errors.As(err, &pe) {
				t.Errorf("error wraps a *PanicError; the panic escaped the coroutine")
			}
		})
	}
}

// procBroadcastBody has every node broadcast 32 bits built in one
// reused buffer in each of `rounds` rounds, ignoring its inbox: under
// CONGEST it isolates the cost of a Broadcast to topology neighbors.
func procBroadcastBody(rounds int) func(*Proc) error {
	return func(p *Proc) error {
		var m bits.Buffer
		for r := 0; r < rounds; r++ {
			m.Reset()
			m.WriteUint(uint64(p.ID()+r), 32)
			if err := p.Broadcast(&m); err != nil {
				return err
			}
			p.Next()
		}
		return nil
	}
}

// procGossipBody is gossipBody written as a Next loop: for `rounds`
// rounds each node sends messages built in one reused buffer to `fanout`
// pseudorandom destinations, then XOR-folds its inbox through a stack
// Reader. Once warm, a round of it allocates nothing, so it isolates the
// cost of the Proc barrier itself.
func procGossipBody(rounds, fanout int) func(*Proc) error {
	return func(p *Proc) error {
		var acc uint64
		var rd bits.Reader
		var m bits.Buffer
		for r := 0; r < rounds; r++ {
			for k := 0; k < fanout; k++ {
				dst := p.Rand().Intn(p.N())
				if dst == p.ID() || p.sentTo(dst) {
					continue
				}
				m.Reset()
				m.WriteUint(uint64(p.ID())<<16^uint64(r+k), 32)
				if err := p.Send(dst, &m); err != nil {
					return err
				}
			}
			for _, msg := range p.Next() {
				if msg == nil {
					continue
				}
				rd.Reset(msg)
				v, err := rd.ReadUint(32)
				if err != nil {
					return err
				}
				acc ^= v
			}
		}
		p.SetOutput(acc)
		return nil
	}
}

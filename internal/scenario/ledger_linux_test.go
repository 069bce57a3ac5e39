package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/graph"
)

// TestLedgerAppendFailureStopsRun: once a ledger append fails, the
// shards start no further cell and the run returns the append error. The
// first cell's engine leg puts a read-only descriptor in place of the
// ledger's, so that cell's own append is the one that fails.
func TestLedgerAppendFailureStopsRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var engineLegs atomic.Int32
	m := syntheticMatrix(func(g *graph.Graph, bandwidth int, seed int64, leg Leg) (*LegResult, error) {
		if !leg.Oracle && engineLegs.Add(1) == 1 {
			if err := makeReadOnly(path); err != nil {
				return nil, err
			}
		}
		return &LegResult{Output: "ok"}, nil
	})
	m.Sizes = []int{4, 5, 6, 7}
	_, err := RunMatrixOpts(m, RunOptions{Shards: 1, Ledger: path})
	if err == nil || !strings.Contains(err.Error(), "ledger append") {
		t.Fatalf("run error %v, want the ledger append error", err)
	}
	if n := engineLegs.Load(); n != 1 {
		t.Fatalf("%d cells ran, want 1: the run went on after the append failed", n)
	}
}

// makeReadOnly swaps this process's open descriptor of path for a
// read-only descriptor of the null device, so writes through it fail.
func makeReadOnly(path string) error {
	want, err := filepath.EvalSymlinks(path)
	if err != nil {
		return err
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return err
	}
	for _, e := range ents {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err != nil || target != want {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			return err
		}
		ro, err := syscall.Open(os.DevNull, syscall.O_RDONLY, 0)
		if err != nil {
			return err
		}
		defer syscall.Close(ro)
		return syscall.Dup3(ro, fd, 0)
	}
	return fmt.Errorf("no open descriptor of %s", path)
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/scenariod"
)

// workerMain is `perfbench worker`: one worker process of the fleet
// workload. It drains the server like `scenariod worker` does — a
// scenariod.Worker over a shared scenariod.Cache — until the server
// drains or its standard input closes, then writes its cache counters
// and runtime counters to the -stats file.
func workerMain(args []string) int {
	fs := flag.NewFlagSet("perfbench worker", flag.ContinueOnError)
	server := fs.String("server", "", "scenariod base URL")
	name := fs.String("name", "", "worker id")
	cacheDir := fs.String("cache", "", "shared cache directory")
	traceDir := fs.String("trace-dir", "", "archive engine traces here (\"\" = untraced)")
	statsPath := fs.String("stats", "", "write the worker's counters here on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *server == "" || *name == "" || *cacheDir == "" || *statsPath == "" {
		fmt.Fprintln(os.Stderr, "perfbench worker: -server, -name, -cache and -stats are required")
		return 2
	}
	before := readProcStats()
	cache, err := scenariod.OpenCache(*cacheDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker %s: %v\n", *name, err)
		return 1
	}
	hits, misses := new(obs.Counter), new(obs.Counter)
	cache.SetMetrics(hits, misses)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// The parent closes our standard input to stop us; a parent
		// that dies closes it too.
		_, _ = io.Copy(io.Discard, os.Stdin)
		cancel()
	}()
	w := &scenariod.Worker{
		Client:    scenariod.NewClient(*server),
		Name:      *name,
		Cache:     cache,
		TraceDir:  *traceDir,
		PollEvery: pollEvery,
	}
	runErr := w.Run(ctx)

	st := workerStats{CacheHits: hits.Value(), CacheMisses: misses.Value(), Proc: readProcStats().sub(before)}
	data, err := json.Marshal(st)
	if err == nil {
		err = os.WriteFile(*statsPath, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker %s: writing stats: %v\n", *name, err)
		return 1
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fmt.Fprintf(os.Stderr, "perfbench worker %s: %v\n", *name, runErr)
		return 1
	}
	return 0
}

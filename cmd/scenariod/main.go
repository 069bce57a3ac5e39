// Scenariod runs the scenario matrix as a crash-tolerant service
// (internal/scenariod): a job-queue server that leases cells to sharded
// worker processes with heartbeats and deadlines, requeues the cells of
// crashed workers, and streams incremental results — DESIGN.md §12.
//
//	scenariod serve -addr 127.0.0.1:8437 -ledger-dir /var/lib/scenariod
//	scenariod worker -server http://127.0.0.1:8437 -cache /tmp/scen-cache
//
// serve prints "scenariod listening on http://HOST:PORT" once the
// socket is bound (with -addr :0 the kernel picks the port), sweeps
// expired leases on a ticker, and on SIGTERM/SIGINT drains: new runs
// and leases are refused, in-flight leases get up to -drain-grace to
// deliver, ledgers are flushed, then the process exits. workers exit on
// their own when told the server is draining.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/scenariod"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		os.Exit(serve(os.Args[2:]))
	case "worker":
		os.Exit(worker(os.Args[2:]))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  scenariod serve  [-addr HOST:PORT] [-ledger-dir DIR] [-lease-ttl D] [-max-attempts N]
                   [-backoff D] [-backoff-cap D] [-max-queued N] [-sweep-every D] [-drain-grace D]
                   [-events PATH] [-pprof]
  scenariod worker [-server URL] [-name ID] [-cache DIR] [-cache-max-bytes N] [-timeout D]
                   [-retries N] [-poll D] [-metrics-addr HOST:PORT] [-pprof] [-trace-dir DIR]`)
}

func serve(args []string) int {
	fs := flag.NewFlagSet("scenariod serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8437", "listen address (use :0 for an ephemeral port)")
		ledgerDir   = fs.String("ledger-dir", "", "per-run ledger directory; runs found here are resumed on startup (\"\" = in-memory only)")
		leaseTTL    = fs.Duration("lease-ttl", 15*time.Second, "lease lifetime without a heartbeat")
		maxAttempts = fs.Int("max-attempts", 3, "lease grants per cell before quarantine as infra")
		backoff     = fs.Duration("backoff", 250*time.Millisecond, "base requeue backoff (capped exponential with jitter)")
		backoffCap  = fs.Duration("backoff-cap", 8*time.Second, "requeue backoff cap")
		maxQueued   = fs.Int("max-queued", 100000, "bound on unfinished cells across runs; submissions over it are shed with 503")
		sweepEvery  = fs.Duration("sweep-every", time.Second, "lease-expiry sweep interval")
		drainGrace  = fs.Duration("drain-grace", 30*time.Second, "how long a drain waits for in-flight leases before shutting down")
		eventsPath  = fs.String("events", "", "append structured NDJSON lease-lifecycle events to this file (\"\" = off)")
		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the server handler")
	)
	fs.Parse(args)

	var events *obs.EventLog
	if *eventsPath != "" {
		f, err := os.OpenFile(*eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenariod: events: %v\n", err)
			return 1
		}
		defer f.Close()
		events = obs.NewEventLog(f)
	}

	s, err := scenariod.New(scenariod.Config{
		LedgerDir:      *ledgerDir,
		MaxQueuedCells: *maxQueued,
		Queue: scenariod.QueueConfig{
			LeaseTTL:    *leaseTTL,
			MaxAttempts: *maxAttempts,
			BackoffBase: *backoff,
			BackoffCap:  *backoffCap,
		},
		Events:      events,
		EnablePprof: *pprofOn,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenariod: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenariod: %v\n", err)
		return 1
	}
	fmt.Printf("scenariod listening on http://%s\n", ln.Addr())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.StartSweeper(ctx, *sweepEvery)
	srv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "scenariod: %v\n", err)
		return 1
	case got := <-sig:
		fmt.Printf("scenariod: %v: draining\n", got)
	}

	// Drain: refuse new work, give in-flight leases a grace window to
	// deliver (their cells land in the ledger), then shut down.
	s.Drain()
	deadline := time.Now().Add(*drainGrace)
	for !s.Quiesced() && time.Now().Before(deadline) {
		s.Sweep()
		time.Sleep(100 * time.Millisecond)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	srv.Shutdown(shutCtx)
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "scenariod: ledger close: %v\n", err)
		return 1
	}
	fmt.Println("scenariod: drained, ledgers flushed")
	return 0
}

func worker(args []string) int {
	fs := flag.NewFlagSet("scenariod worker", flag.ExitOnError)
	var (
		server      = fs.String("server", "http://127.0.0.1:8437", "scenariod base URL")
		name        = fs.String("name", "", "worker id (default host-pid)")
		cacheDir    = fs.String("cache", "", "content-addressed cache directory shared across workers (\"\" = no cache)")
		cacheMax    = fs.Int64("cache-max-bytes", 0, "bound the cache directory; puts over the bound evict entries oldest-first (0 = unbounded)")
		timeout     = fs.Duration("timeout", 0, "per-leg deadline (0 = none)")
		retries     = fs.Int("retries", 0, "retries for infra-failed legs (panic, timeout)")
		backoff     = fs.Duration("retry-backoff", 0, "base pause before each retry (0 = immediate)")
		backoffCap  = fs.Duration("retry-backoff-cap", 0, "retry backoff cap (0 = 32x base)")
		poll        = fs.Duration("poll", 200*time.Millisecond, "lease poll interval when the queue is empty")
		metricsAddr = fs.String("metrics-addr", "", "serve this worker's /metrics (cache hits/misses) on HOST:PORT (\"\" = off)")
		traceDir    = fs.String("trace-dir", "", "archive an engine-trace/v1 NDJSON trace per engine-leg run under this directory (\"\" = off)")
		pprofOn     = fs.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on -metrics-addr")
	)
	fs.Parse(args)

	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	reg := obs.NewRegistry()
	var cache *scenariod.Cache
	if *cacheDir != "" {
		var err error
		cache, err = scenariod.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenariod worker: %v\n", err)
			return 1
		}
		cache.SetMaxBytes(*cacheMax)
		cache.RegisterMetrics(reg)
	}
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenariod worker: metrics: %v\n", err)
			return 1
		}
		fmt.Printf("scenariod worker metrics on http://%s/metrics\n", ln.Addr())
		go http.Serve(ln, mux)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sig
		cancel()
	}()

	w := &scenariod.Worker{
		Client:          scenariod.NewClient(*server),
		Name:            *name,
		Cache:           cache,
		CellTimeout:     *timeout,
		TraceDir:        *traceDir,
		Retries:         *retries,
		RetryBackoff:    *backoff,
		RetryBackoffCap: *backoffCap,
		PollEvery:       *poll,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	}
	if err := w.Run(ctx); err != nil && err != context.Canceled {
		fmt.Fprintf(os.Stderr, "scenariod worker: %v\n", err)
		return 1
	}
	return 0
}

// Command mced is the resident maximal-clique enumeration daemon: it keeps
// registered graphs and their preprocessed Sessions warm in memory and
// serves enumeration/count jobs over an HTTP JSON API, so the per-query
// cost drops from parse+preprocess to pure enumeration.
//
// Usage:
//
//	mced [-addr 127.0.0.1:8399] [-portfile path]
//	     [-dataset name=path ...] [-slots N] [-queue-wait 2s] [-queue-len N]
//	     [-session-budget 1GiB] [-stream-buffer 1024] [-job-history 256]
//	     [-journal dir] [-checkpoint-interval 2s]
//	     [-peers url,url,...] [-shard-inflight N] [-shard-timeout 1m]
//	     [-shard-retries N] [-shard-branches N]
//	     [-breaker-threshold N] [-breaker-cooldown 10s]
//	     [-log-level info] [-log-format text] [-slow-query 0]
//	     [-phase-timers] [-debug-addr host:port]
//
// Start the daemon, register a dataset and stream a job:
//
//	mced -addr 127.0.0.1:8399 &
//	curl -s localhost:8399/v1/datasets -d '{"name":"web","path":"web.txt"}'
//	curl -s localhost:8399/v1/jobs -d '{"dataset":"web","workers":4}'   # -> {"id":"j000001",...}
//	curl -sN localhost:8399/v1/jobs/j000001/cliques                     # NDJSON stream
//
// -dataset registers graphs at boot (repeatable; format auto-detected).
// -slots caps the total enumeration worker goroutines across all concurrent
// jobs (default GOMAXPROCS); requests that cannot be admitted within
// -queue-wait receive HTTP 429. -session-budget bounds the warm-session
// cache (accepts plain bytes or KiB/MiB/GiB suffixes); least recently used
// sessions are evicted beyond it. -portfile writes the bound "host:port" —
// with -addr :0 this is how scripts find the listener. SIGINT/SIGTERM shut
// down gracefully: running jobs are cancelled and their partial statistics
// persisted before the process exits.
//
// -journal makes jobs crash-safe: submissions, branch-level progress
// checkpoints and terminal results are appended to a write-ahead log in the
// given directory, fsync'd before they are acknowledged. A daemon restarted
// with the same -journal dir replays the log, re-registers its datasets and
// resumes interrupted jobs from their last durable checkpoint — counts
// re-run only the incomplete branches, and streaming clients reconnect with
// ?resume_after= to receive each clique exactly once. -checkpoint-interval
// throttles how often progress is persisted (negative = every branch
// chunk). /readyz answers 503 until the replay has been applied. See the
// README's "Fault tolerance" section.
//
// -peers turns the node into a distributed coordinator: jobs are split into
// top-level branch shards and fanned out to the listed worker nodes, whose
// clique streams merge into the one stream the client reads. Workers run
// plain mced with the same dataset registered; -shard-inflight bounds the
// concurrently dispatched shards, -shard-timeout bounds one shard attempt
// (stragglers are re-split or re-dispatched), -shard-retries bounds the
// re-dispatches per shard and -shard-branches caps a shard's branch
// interval. Repeatedly failing peers trip a per-peer circuit breaker:
// after -breaker-threshold consecutive failures the peer is quarantined
// for -breaker-cooldown, then a single probe shard decides whether it
// rejoins the rotation. See the README's "Distributed serving" section.
//
// Observability: GET /metrics serves Prometheus text exposition (histograms
// for job latency, queue wait, per-phase time, stream stall, journal fsync
// and shard RTT) or, with ?format=json, the flat mced_ counters. Every job
// carries a trace timeline readable at GET /v1/jobs/{id}/trace; in
// coordinator mode the trace ID propagates to workers via a traceparent
// header so shard spans nest under the coordinator job. -log-level and
// -log-format control the structured (log/slog) job logs on stderr;
// -slow-query logs a sampled timeline for jobs slower than the threshold;
// -phase-timers enables per-phase timing on every job (also settable per
// job in the request); -debug-addr opens a second listener serving
// net/http/pprof and expvar for live profiling, kept off the main API
// address so profiling endpoints are never exposed to job clients. See the
// README's "Observability" section.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/graphmining/hbbmc/internal/chaos"
	"github.com/graphmining/hbbmc/internal/service"
)

type datasetFlags []string

func (d *datasetFlags) String() string { return strings.Join(*d, ",") }
func (d *datasetFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*d = append(*d, v)
	return nil
}

// parseBytes accepts "1073741824", "512MiB", "1GiB", "64KiB".
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	return n * mult, nil
}

func main() {
	var datasets datasetFlags
	var (
		addr         = flag.String("addr", "127.0.0.1:8399", "listen address (use :0 for a random port with -portfile)")
		portFile     = flag.String("portfile", "", "write the bound host:port to this file once listening")
		slots        = flag.Int("slots", 0, "global worker-slot budget shared by all jobs (0 = GOMAXPROCS)")
		queueWait    = flag.Duration("queue-wait", 2*time.Second, "admission wait before a saturated request gets 429")
		queueLen     = flag.Int("queue-len", 0, "admission queue length before immediate 429 (0 = 4×slots)")
		budget       = flag.String("session-budget", "1GiB", "LRU byte budget for warm sessions (plain bytes or KiB/MiB/GiB)")
		streamBuffer = flag.Int("stream-buffer", 0, "default cliques buffered between the enumeration and the stream, per job (0 = 1024)")
		jobHistory   = flag.Int("job-history", 0, "terminal jobs retained for status queries (0 = 256)")
		grace        = flag.Duration("grace", 10*time.Second, "graceful-shutdown bound for cancelling running jobs")

		journalDir = flag.String("journal", "", "directory for the crash-recovery job journal (empty = no journal)")
		ckptEvery  = flag.Duration("checkpoint-interval", 0, "min interval between durable branch-progress checkpoints (0 = 2s, negative = every chunk)")

		peers         = flag.String("peers", "", "comma-separated worker base URLs; non-empty enables coordinator mode")
		shardInflight = flag.Int("shard-inflight", 0, "max shards dispatched concurrently (0 = 2×peers)")
		shardTimeout  = flag.Duration("shard-timeout", 0, "per-shard attempt bound; stragglers are re-split or re-dispatched (0 = 1m)")
		shardRetries  = flag.Int("shard-retries", 0, "re-dispatches per failed shard before the job fails (0 = 3, negative = none)")
		shardBranches = flag.Int("shard-branches", 0, "max top-level branches per shard (0 = 4096)")

		breakerThreshold = flag.Int("breaker-threshold", 0, "consecutive peer failures that trip its circuit breaker (0 = 5)")
		breakerCooldown  = flag.Duration("breaker-cooldown", 0, "quarantine before an open breaker admits a probe shard (0 = 10s)")

		logLevel    = flag.String("log-level", "info", "minimum structured-log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "structured-log encoding on stderr: text or json")
		slowQuery   = flag.Duration("slow-query", 0, "log a sampled trace timeline for jobs slower than this (0 = disabled)")
		phaseTimers = flag.Bool("phase-timers", false, "collect per-phase timings on every job (jobs can also opt in per request)")
		debugAddr   = flag.String("debug-addr", "", "separate listener for net/http/pprof and expvar (empty = disabled)")
	)
	flag.Var(&datasets, "dataset", "register a dataset at boot as name=path (repeatable)")
	flag.Parse()

	budgetBytes, err := parseBytes(*budget)
	if err != nil {
		fatal(err)
	}
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	if err := chaos.ArmFromEnv(); err != nil {
		fatal(err)
	}
	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	var bootDatasets []service.DatasetSpec
	for _, spec := range datasets {
		name, path, _ := strings.Cut(spec, "=")
		bootDatasets = append(bootDatasets, service.DatasetSpec{Name: name, Path: path})
	}
	srv, err := service.Open(service.Config{
		WorkerSlots:        *slots,
		QueueWait:          *queueWait,
		MaxQueue:           *queueLen,
		SessionBudget:      budgetBytes,
		StreamBuffer:       *streamBuffer,
		MaxJobHistory:      *jobHistory,
		JournalDir:         *journalDir,
		CheckpointInterval: *ckptEvery,
		Peers:              peerList,
		ShardInflight:      *shardInflight,
		ShardTimeout:       *shardTimeout,
		ShardRetries:       *shardRetries,
		ShardMaxBranches:   *shardBranches,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		Logger:             logger,
		SlowQuery:          *slowQuery,
		PhaseTimers:        *phaseTimers,
		BootDatasets:       bootDatasets,
	})
	if err != nil {
		fatal(err)
	}
	if *journalDir != "" {
		fmt.Fprintf(os.Stderr, "mced: journaling jobs to %s\n", *journalDir)
	}
	if len(peerList) > 0 {
		fmt.Fprintf(os.Stderr, "mced: coordinator mode, %d peer(s)\n", len(peerList))
	}
	for _, d := range bootDatasets {
		fmt.Fprintf(os.Stderr, "mced: registered dataset %q from %s\n", d.Name, d.Path)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "mced: listening on http://%s\n", bound)

	if *debugAddr != "" {
		if err := serveDebug(*debugAddr); err != nil {
			fatal(err)
		}
	}

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mced: %v, shutting down\n", sig)
	case err := <-errc:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Cancel running jobs first — that unblocks any in-flight streaming
	// handlers (their channels close) — then drain the HTTP server.
	jobErr := srv.Shutdown(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mced: http shutdown:", err)
	}
	if jobErr != nil {
		fmt.Fprintln(os.Stderr, "mced: job shutdown:", jobErr)
		os.Exit(1)
	}
}

// buildLogger constructs the structured stderr logger the service threads
// through its job lifecycle logs.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log-format %q (want text or json)", format)
	}
}

// serveDebug opens the profiling listener: net/http/pprof plus expvar on an
// explicit mux of its own, so the debug surface shares nothing with the job
// API mux and is only reachable on the operator-chosen address.
func serveDebug(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "mced: debug (pprof, expvar) on http://%s/debug/pprof/\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "mced: debug listener:", err)
		}
	}()
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mced:", err)
	os.Exit(1)
}

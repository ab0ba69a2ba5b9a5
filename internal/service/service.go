// Package service implements mced, the resident maximal-clique enumeration
// daemon: a dataset registry with a warm-session LRU, a job manager with
// NDJSON clique streaming, and admission control over a global worker-slot
// semaphore.
//
// The point of the daemon is to move the per-query cost of a clique query
// from parse+preprocess to pure enumeration. A cold CLI run pays text
// parsing and the O(δm) ordering preprocessing on every invocation; the
// registry pays the parse once per dataset (through the .hbg snapshot
// sidecar) and the preprocessing once per (dataset, algorithm options)
// pair, so every later job starts enumerating immediately and its Stats
// report OrderingTime of zero.
//
// HTTP API (JSON; see the README's "Serving" section for curl examples):
//
//	GET    /healthz                 liveness + uptime
//	GET    /metrics                 Prometheus exposition (?format=json: flat
//	                                counters and gauges)
//	GET    /v1/info                 node identity: version, capacity, peers,
//	                                dataset fingerprints
//	GET    /v1/datasets             list registered datasets
//	POST   /v1/datasets             register {"name","path","format"}
//	GET    /v1/datasets/{name}      one dataset
//	DELETE /v1/datasets/{name}      unregister + evict its sessions
//	GET    /v1/jobs                 list jobs
//	POST   /v1/jobs                 start a job; 429 when saturated
//	GET    /v1/jobs/{id}            job status (+ ?wait=2s to long-poll)
//	GET    /v1/jobs/{id}/cliques    NDJSON clique stream (one reader)
//	DELETE /v1/jobs/{id}            cancel
//
// Job types: POST /v1/jobs takes a "type" field selecting the query —
// "enumerate" (default; stream every maximal clique), "count" (statistics
// only), "max_clique" (exact maximum clique; the witness appears as
// "max_clique" in the job view), "top_k" (the k largest maximal cliques,
// streamed like an enumeration) and "kclique_count" (the number of
// k-vertex cliques, reported as Stats.KCliques). top_k and kclique_count
// require "k" >= 1. All types run against the same cached session; the
// legacy "mode" field is an alias for "type".
//
// Admission control: every job holds as many worker slots as the worker
// goroutines its query runs, acquired FIFO from a global semaphore sized to
// Config.WorkerSlots. A request that cannot be admitted within
// Config.QueueWait (or that arrives to a full admission queue) is rejected
// with 429 instead of oversubscribing the machine.
//
// Distributed mode: with Config.Peers set the server becomes a coordinator —
// POST /v1/jobs without a branch_range is split into top-level branch
// intervals (internal/distrib) and fanned out to the peers, whose NDJSON
// clique streams merge into the one stream the client reads; see
// coordinator.go and the README's "Distributed serving" section.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"github.com/graphmining/hbbmc/internal/service/journal"
)

// Config sizes the server. The zero value is usable: all defaults below.
type Config struct {
	// WorkerSlots is the global enumeration worker budget shared by all
	// concurrent jobs (0 = GOMAXPROCS).
	WorkerSlots int
	// QueueWait bounds how long a job request may wait for worker slots
	// before being rejected with 429 (0 = 2s; negative = no waiting).
	QueueWait time.Duration
	// MaxQueue bounds the admission queue length; requests beyond it are
	// rejected immediately (0 = 4×WorkerSlots).
	MaxQueue int
	// SessionBudget is the LRU byte budget for cached sessions, measured by
	// Session.MemoryEstimate (0 = 1 GiB).
	SessionBudget int64
	// StreamBuffer is the default number of cliques buffered between the
	// enumeration and the stream; a full buffer blocks the enumeration
	// workers (backpressure) until the streaming client catches up
	// (0 = 1024).
	StreamBuffer int
	// MaxJobHistory bounds the retained terminal jobs (0 = 256).
	MaxJobHistory int

	// Peers lists the base URLs of worker mced nodes (http://host:port).
	// Non-empty Peers switches the server into coordinator mode: a job
	// without an explicit branch_range is split into branch-interval shards
	// (internal/distrib) and fanned out to the peers over the jobs API; the
	// fields below size that fan-out and are ignored otherwise.
	Peers []string
	// ShardInflight bounds the shards dispatched concurrently
	// (0 = 2×len(Peers)).
	ShardInflight int
	// ShardTimeout bounds one shard attempt, coordinator-side, and is also
	// sent as the remote job's own timeout so an orphaned shard self-cancels
	// (0 = 60s). A shard that exceeds it is re-split (guided-chunking halves)
	// or re-dispatched.
	ShardTimeout time.Duration
	// ShardRetries is how many times a failed shard is re-dispatched before
	// the job fails (0 = 3; negative = never retry).
	ShardRetries int
	// ShardMaxBranches caps the branch interval of one shard, bounding both
	// the coordinator's per-shard clique buffering and a straggler's blast
	// radius (0 = 4096).
	ShardMaxBranches int

	// JournalDir enables the write-ahead job journal: dataset registrations,
	// job submissions, branch-progress checkpoints and terminal stats are
	// fsync'd there, and a server built with Open replays the directory to
	// restore and resume interrupted jobs. "" = no journal (New ignores it).
	JournalDir string
	// CheckpointInterval is the minimum spacing between durable branch
	// checkpoints of one running job (0 = 2s; negative = checkpoint at every
	// completed branch chunk).
	CheckpointInterval time.Duration
	// BreakerThreshold is the consecutive shard-dispatch failures that trip
	// a peer's circuit breaker open (0 = 5).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped peer stays quarantined before a
	// half-open probe may test it again (0 = 10s).
	BreakerCooldown time.Duration

	// Logger receives the server's structured logs (job lifecycle, slow
	// queries). nil = discard.
	Logger *slog.Logger
	// SlowQuery is the end-to-end latency beyond which a finished job is
	// dumped to the log with its span timeline and statistics, sampled to at
	// most one dump per second (0 = disabled).
	SlowQuery time.Duration
	// PhaseTimers forces per-phase timers (universe/pivot/et/emit) on every
	// job, feeding the mced_phase_seconds histograms; individual requests
	// can also opt in per job with "phase_timers": true.
	PhaseTimers bool

	// BootDatasets are registered by Open at construction time, before any
	// journal replay resumes interrupted jobs, so a restored job can resolve
	// a dataset that was supplied by flag rather than over the API. Each is
	// journaled like an API registration; a boot registration wins over a
	// replayed one of the same name. A failing registration aborts Open.
	BootDatasets []DatasetSpec
}

// DatasetSpec names one dataset to register at boot (Format "" = auto).
type DatasetSpec struct {
	Name   string
	Path   string
	Format string
}

func (c Config) withDefaults() Config {
	if c.WorkerSlots <= 0 {
		c.WorkerSlots = runtime.GOMAXPROCS(0)
	}
	if c.QueueWait == 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.QueueWait < 0 {
		c.QueueWait = 0
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.WorkerSlots
	}
	if c.SessionBudget <= 0 {
		c.SessionBudget = 1 << 30
	}
	if c.StreamBuffer <= 0 {
		c.StreamBuffer = 1024
	}
	if c.MaxJobHistory <= 0 {
		c.MaxJobHistory = 256
	}
	if len(c.Peers) > 0 && c.ShardInflight <= 0 {
		c.ShardInflight = 2 * len(c.Peers)
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = time.Minute
	}
	switch {
	case c.ShardRetries == 0:
		c.ShardRetries = 3
	case c.ShardRetries < 0:
		c.ShardRetries = 0
	}
	if c.ShardMaxBranches <= 0 {
		c.ShardMaxBranches = 4096
	}
	switch {
	case c.CheckpointInterval == 0:
		c.CheckpointInterval = 2 * time.Second
	case c.CheckpointInterval < 0:
		c.CheckpointInterval = 0
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// Server is the mced HTTP service. Create one with New and mount it as an
// http.Handler; Shutdown cancels the jobs still running.
type Server struct {
	cfg      Config
	m        *metrics
	reg      *Registry
	jobs     *jobManager
	slots    *slotSem
	mux      *http.ServeMux
	started  time.Time
	draining atomic.Bool // set by Shutdown: no new jobs are admitted
	// jnl is the write-ahead job journal (nil when running without one);
	// recovering is true while a journal replay is being applied — /readyz
	// answers 503 and job submission is deferred until it clears.
	jnl        *journal.Journal
	recovering atomic.Bool
	// breakers quarantines flapping coordinator peers (nil without peers).
	breakers *breakerSet
	// obs is the Prometheus-facing instrumentation (histograms, runtime
	// collectors); log is the structured logger (a discard logger when
	// Config.Logger is nil, so call sites never nil-check).
	obs *serverObs
	log *slog.Logger
}

// New builds a Server from cfg (zero value = defaults). Config.JournalDir
// is ignored here — use Open for a journaled, crash-recovering server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	o := newServerObs()
	m := newMetrics(o.reg)
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:     cfg,
		m:       m,
		obs:     o,
		log:     logger,
		reg:     newRegistry(cfg.SessionBudget, m, o.sessionBuild),
		jobs:    newJobManager(cfg.MaxJobHistory, m),
		slots:   newSlotSem(cfg.WorkerSlots, cfg.MaxQueue),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.jobs.onTerminal = s.jobTerminal
	s.jobs.stall = o.streamStall
	if len(cfg.Peers) > 0 {
		s.breakers = newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, m)
	}
	s.registerSampledMetrics()
	s.routes()
	return s
}

// Registry exposes the dataset registry (for preloading datasets at boot).
func (s *Server) Registry() *Registry { return s.reg }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegisterDataset)
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.handleGetDataset)
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDeleteDataset)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("POST /v1/jobs", s.handleCreateJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/cliques", s.handleStreamCliques)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown stops admitting new jobs, cancels every live one and waits
// (bounded by ctx) for them to reach a terminal state and release their
// worker slots. The terminal-state wait matters for coordinator jobs, which
// hold zero local slots — their shards run on peers — yet must propagate
// the cancellation (best-effort remote DELETEs) before the process exits.
// The cancel sweep repeats each poll so a job that was mid-admission when
// the drain began cannot slip through and hang the shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		live := 0
		for _, j := range s.jobs.list() {
			if !j.State().terminal() {
				j.requestCancel("server shutdown")
				// A restored job nobody reclaimed has no goroutine to
				// observe the cancel; retire it directly. Its terminal
				// state is deliberately not journaled, so the next
				// restart restores and resumes it again.
				if s.stopUnclaimedResume(j, "server shutdown") {
					continue
				}
				live++
			}
		}
		if s.slots.InUse() == 0 && live == 0 {
			if s.jnl != nil {
				// Everything a restart needs is on disk (shutdown stops are
				// deliberately not journaled as terminal); fsync and close.
				_ = s.jnl.Close()
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// Version identifies the mced API generation; /v1/info reports it so
// operators (and the coordinator's peer probe) can spot skewed fleets.
const Version = "mced/0.8"

// nodeInfo is the GET /v1/info body: what a coordinator needs to know about
// a node before handing it work — capacity, peers and, for every loaded
// dataset, the .hbg payload fingerprint that anchors shard compatibility.
type nodeInfo struct {
	Version     string   `json:"version"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	WorkerSlots int      `json:"worker_slots"`
	SlotsInUse  int      `json:"slots_in_use"`
	Peers       []string `json:"peers,omitempty"`
	// PeerBreakers maps each tracked peer to its circuit-breaker state
	// ("closed", "open", "half_open"); an open peer is quarantined from
	// shard rotation until its cooldown elapses.
	PeerBreakers map[string]string `json:"peer_breakers,omitempty"`
	Datasets     []DatasetInfo     `json:"datasets"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	info := nodeInfo{
		Version:     Version,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		WorkerSlots: s.slots.Capacity(),
		SlotsInUse:  s.slots.InUse(),
		Peers:       s.cfg.Peers,
		Datasets:    s.reg.Datasets(),
	}
	if s.breakers != nil {
		info.PeerBreakers = s.breakers.states()
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"worker_slots":   s.slots.Capacity(),
		"slots_in_use":   s.slots.InUse(),
	})
}

// handleReadyz is the readiness probe: unlike /healthz (pure liveness) it
// answers 503 while a journal replay is still being applied and during a
// shutdown drain, so load balancers stop routing to a node that cannot
// accept jobs.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.recovering.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "recovering"})
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

// handleMetrics renders the registry in Prometheus text exposition format
// (text/plain; version=0.0.4) by default — histograms included — or, when
// the request asks for JSON (?format=json, or an Accept header naming
// application/json), the flat mced_ counters and gauges the smoke scripts
// and older tooling consume, keys sorted for stable diffs.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = s.obs.reg.WriteJSON(w, "mced_")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.reg.WritePrometheus(w)
}

var datasetNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

type registerDatasetRequest struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Format string `json:"format"` // "" = auto
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	var req registerDatasetRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if !datasetNameRE.MatchString(req.Name) {
		writeError(w, http.StatusBadRequest, "invalid dataset name %q", req.Name)
		return
	}
	if req.Format == "" {
		req.Format = "auto"
	}
	info, err := s.reg.Register(req.Name, req.Path, req.Format)
	if err != nil {
		status := http.StatusBadRequest
		if _, exists := s.reg.Dataset(req.Name); exists {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	if s.jnl != nil {
		_ = s.jnl.AppendDataset(info.Name, info.Path, req.Format)
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.reg.Datasets()})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	info, ok := s.reg.Dataset(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// A journaled job that is not yet terminal still needs this dataset: a
	// restart would replay the job and fail its resume with a confusing
	// load error. Refuse the delete until the job finishes or is cancelled.
	if s.jnl != nil {
		for _, j := range s.jobs.list() {
			if j.Dataset != name || j.State().terminal() {
				continue
			}
			j.mu.Lock()
			journaled := j.journaled
			j.mu.Unlock()
			if journaled {
				writeError(w, http.StatusConflict,
					"dataset %q is referenced by journaled job %s (state %s); cancel it first",
					name, j.ID, j.State())
				return
			}
		}
	}
	if !s.reg.Remove(name) {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	if s.jnl != nil {
		_ = s.jnl.AppendDatasetRemove(name)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.jobs.list()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait < 0 {
			writeError(w, http.StatusBadRequest, "invalid wait %q", waitStr)
			return
		}
		if wait > time.Minute {
			wait = time.Minute
		}
		select {
		case <-j.Done():
		case <-time.After(wait):
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if j.State().terminal() {
		writeJSON(w, http.StatusOK, j.View())
		return
	}
	j.requestCancel("cancelled")
	// A journal-restored job awaiting its resume has no goroutine to observe
	// the cancellation; retire it here.
	s.stopUnclaimedResume(j, "cancelled")
	writeJSON(w, http.StatusAccepted, j.View())
}

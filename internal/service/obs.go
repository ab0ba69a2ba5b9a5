package service

import (
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/graphmining/hbbmc/internal/obs"
	"github.com/graphmining/hbbmc/internal/service/journal"
)

// serverObs bundles the server's Prometheus-facing instrumentation: the
// one registry that renders both views of /metrics, the latency histograms
// fed by the job lifecycle, and the Go runtime collectors. One serverObs
// belongs to one Server (nothing registers globally), so tests and
// embedders can run servers side by side with independent scrapes.
type serverObs struct {
	reg *obs.Registry

	// jobLatency observes submission→terminal wall time of every job.
	jobLatency *obs.Histogram
	// queueWait observes the admission wait until worker slots were granted
	// (admitted jobs only — rejected requests never hold slots).
	queueWait *obs.Histogram
	// streamStall observes each put that blocked on a full clique pipe
	// waiting for the streaming client.
	streamStall *obs.Histogram
	// sessionBuild observes cache-miss session construction (parse-free
	// preprocessing); cache hits cost nothing and are not observed.
	sessionBuild *obs.Histogram
	// journalFsync observes the write-ahead journal's per-append fsync.
	journalFsync *obs.Histogram
	// shardRTT observes the coordinator's dispatch POST round trip per
	// shard attempt.
	shardRTT *obs.Histogram

	// slowLast is the unix-nanosecond timestamp of the last slow-query dump;
	// at most one dump per second survives the rate limit.
	slowLast atomic.Int64
}

func newServerObs() *serverObs {
	r := obs.NewRegistry()
	o := &serverObs{reg: r}
	o.jobLatency = r.Histogram("mced_job_duration_seconds",
		"End-to-end job latency from submission to terminal state.", obs.LatencyBuckets())
	o.queueWait = r.Histogram("mced_queue_wait_seconds",
		"Admission-queue wait until worker slots were granted.", obs.FineBuckets())
	o.streamStall = r.Histogram("mced_stream_stall_seconds",
		"Time a clique producer blocked on a full stream pipe waiting for the streaming client.",
		obs.FineBuckets())
	o.sessionBuild = r.Histogram("mced_session_build_seconds",
		"Session construction time on cache misses (ordering preprocessing).", obs.LatencyBuckets())
	o.journalFsync = r.Histogram("mced_journal_fsync_seconds",
		"Write-ahead journal fsync latency per appended record.", obs.FineBuckets())
	o.shardRTT = r.Histogram("mced_shard_rtt_seconds",
		"Coordinator shard dispatch round-trip time per attempt.", obs.FineBuckets())
	r.RegisterGoRuntime()
	return o
}

// HELP texts of the flat mced_ counters and gauges.
const (
	counterHelp = "Cumulative counter from the mced metrics set."
	gaugeHelp   = "Gauge from the mced metrics set."
)

// metrics holds the server's flat counters and gauges, native metrics of
// the server's one registry; /metrics renders them in both views.
type metrics struct {
	jobsQueued, jobsRunning           *obs.Gauge
	jobsDone, jobsStopped, jobsFailed *obs.Counter
	cliquesEmitted                    *obs.Counter
	sessionHits, sessionMisses        *obs.Counter
	sessionEvictions                  *obs.Counter
	sessionBytes                      *obs.Gauge
	datasets                          *obs.Gauge
	admissionRejected                 *obs.Counter
	// jobsOfType counts submissions per job type, bumped when a job of that
	// type is created (admitted or not).
	jobsOfType map[string]*obs.Counter
	// Coordinator-mode shard accounting: descriptors handed to the fan-out,
	// re-dispatch attempts (retries and straggler re-splits) and descriptors
	// that exhausted their retry budget.
	shardsDispatched, shardsRetried, shardsFailed *obs.Counter
	// Resume accounting: replays performed, jobs restored from a replay, and
	// branch schedule positions a resume skipped because a durable
	// checkpoint already covered them. (The journal's own counters are
	// sampled at scrape time; see Server.registerSampledMetrics.)
	journalReplays                            *obs.Counter
	resumeJobsRestored, resumeBranchesSkipped *obs.Counter
	// Peer circuit-breaker accounting: failed dispatch outcomes and breaker
	// trips (the open-breaker gauge is sampled at scrape time).
	peerFailures, peerBreakerTrips *obs.Counter
	// Slow-query log accounting: dumps emitted, and dumps suppressed by the
	// one-per-second sampling rate limit.
	slowQueries, slowQueriesSuppressed *obs.Counter
}

// newMetrics registers the flat counters and gauges in r.
func newMetrics(r *obs.Registry) *metrics {
	counter := func(name string) *obs.Counter { return r.Counter("mced_"+name, counterHelp) }
	gauge := func(name string) *obs.Gauge { return r.Gauge("mced_"+name, gaugeHelp) }
	m := &metrics{
		jobsQueued:            gauge("jobs_queued"),
		jobsRunning:           gauge("jobs_running"),
		jobsDone:              counter("jobs_done"),
		jobsStopped:           counter("jobs_stopped"),
		jobsFailed:            counter("jobs_failed"),
		cliquesEmitted:        counter("cliques_emitted"),
		sessionHits:           counter("session_cache_hits"),
		sessionMisses:         counter("session_cache_misses"),
		sessionEvictions:      counter("session_cache_evictions"),
		sessionBytes:          gauge("session_cache_bytes"),
		datasets:              gauge("datasets"),
		admissionRejected:     counter("admission_rejected"),
		jobsOfType:            make(map[string]*obs.Counter, len(jobTypes)),
		shardsDispatched:      counter("shards_dispatched"),
		shardsRetried:         counter("shards_retried"),
		shardsFailed:          counter("shards_failed"),
		journalReplays:        counter("journal_replays"),
		resumeJobsRestored:    counter("resume_jobs_restored"),
		resumeBranchesSkipped: counter("resume_branches_skipped"),
		peerFailures:          counter("peer_failures"),
		peerBreakerTrips:      counter("peer_breaker_trips"),
		slowQueries:           counter("slow_queries"),
		slowQueriesSuppressed: counter("slow_queries_suppressed"),
	}
	for _, typ := range jobTypes {
		m.jobsOfType[typ] = counter("jobs_type_" + typ)
	}
	return m
}

// registerSampledMetrics registers the flat metrics whose values live
// outside the registry, sampled at scrape time: the journal's own append
// counters (zero without a journal) and the number of open peer breakers.
func (s *Server) registerSampledMetrics() {
	journalCounter := func(name string, v func(journal.Counters) int64) {
		s.obs.reg.Func("mced_"+name, counterHelp, obs.KindCounter, func() float64 {
			if s.jnl == nil {
				return 0
			}
			return float64(v(s.jnl.Counters()))
		})
	}
	journalCounter("journal_records_appended", func(c journal.Counters) int64 { return c.Records })
	journalCounter("journal_bytes_appended", func(c journal.Counters) int64 { return c.Bytes })
	journalCounter("journal_truncated_tails", func(c journal.Counters) int64 { return c.TruncatedTails })
	s.obs.reg.Func("mced_peer_breaker_open", gaugeHelp, obs.KindGauge,
		func() float64 { return float64(s.breakers.openCount()) })
}

// jobTerminal is the jobManager's terminal hook, invoked on every terminal
// transition before the job's done channel closes: it feeds the latency
// histogram, closes the trace timeline with its "run" span, logs the
// outcome and emits the sampled slow-query report.
func (s *Server) jobTerminal(j *Job) {
	j.mu.Lock()
	created, started, finished := j.created, j.started, j.finished
	state, reason, errMsg := j.state, j.stopReason, j.errMsg
	stats := j.stats
	wait := j.queueWait
	j.mu.Unlock()

	e2e := finished.Sub(created)
	s.obs.jobLatency.ObserveDuration(e2e)
	if !started.IsZero() {
		j.trace.Record("run", started, finished.Sub(started))
	}
	log := s.log.With(
		slog.String("job", j.ID),
		slog.String("trace", j.trace.ID()),
		slog.String("dataset", j.Dataset),
		slog.String("type", j.Mode),
		slog.String("state", string(state)))
	attrs := []any{
		slog.Duration("duration", e2e),
		slog.Duration("queue_wait", wait),
		slog.Int64("cliques_delivered", j.delivered.Load()),
	}
	if reason != "" {
		attrs = append(attrs, slog.String("stop_reason", reason))
	}
	if errMsg != "" {
		attrs = append(attrs, slog.String("error", errMsg))
	}
	if stats != nil {
		attrs = append(attrs, slog.Int64("cliques", stats.Cliques), slog.Int("max_clique_size", stats.MaxCliqueSize))
	}
	log.Info("job finished", attrs...)

	if s.cfg.SlowQuery <= 0 || e2e < s.cfg.SlowQuery {
		return
	}
	// Sampled: at most one full dump per second, so a saturated server with
	// a pathological dataset cannot turn its own slow-query log into load.
	now := time.Now().UnixNano()
	last := s.obs.slowLast.Load()
	if now-last < int64(time.Second) || !s.obs.slowLast.CompareAndSwap(last, now) {
		s.m.slowQueriesSuppressed.Add(1)
		return
	}
	s.m.slowQueries.Add(1)
	slow := []any{
		slog.Duration("duration", e2e),
		slog.Duration("threshold", s.cfg.SlowQuery),
		slog.Any("timeline", j.trace.View()),
	}
	if stats != nil {
		slow = append(slow, slog.Any("stats", stats))
	}
	log.Warn("slow query", slow...)
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's span timeline
// under its trace ID. For a coordinator job the timeline includes the spans
// merged back from its worker peers, each tagged with the peer's base URL.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.trace.View())
}

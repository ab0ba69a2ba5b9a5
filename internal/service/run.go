package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/distrib"
	"github.com/graphmining/hbbmc/internal/obs"
	"github.com/graphmining/hbbmc/internal/service/journal"
)

// jobRequest is the POST /v1/jobs body. Omitted algorithm fields default to
// the paper's HBBMC++ configuration (hbbmc.DefaultOptions); omitted run
// fields default to one worker, no clique budget and no deadline.
type jobRequest struct {
	Dataset string `json:"dataset"`
	// Type selects the query the job runs:
	//
	//	enumerate      stream every maximal clique over /cliques
	//	count          count maximal cliques (statistics only)
	//	max_clique     exact maximum clique (witness in the job view)
	//	top_k          the k largest maximal cliques, streamed over /cliques
	//	kclique_count  the number of k-vertex cliques (Stats.KCliques)
	//
	// "" defaults to Mode (the pre-workload-query alias), then "enumerate".
	Type string `json:"type"`
	// Mode is the legacy name of Type ("enumerate" or "count"). Setting both
	// to different values is an error.
	Mode string `json:"mode"`
	// K is the k of a top_k or kclique_count job (required, >= 1); it is
	// rejected on the other types.
	K int `json:"k"`

	// Algorithm-relevant options; together with the dataset they select the
	// cached session.
	Algorithm   string `json:"algorithm"`    // "" = hbbmc
	ET          *int   `json:"et"`           // nil = 3
	GR          *bool  `json:"gr"`           // nil = true
	SwitchDepth int    `json:"switch_depth"` // 0 = 1
	EdgeOrder   string `json:"edge_order"`   // "" = truss
	Inner       string `json:"inner"`        // "" = pivot

	// Per-request run knobs; they never fragment the session cache.
	Workers    int    `json:"workers"`     // ≤0 = 1, clamped to the slot capacity
	MaxCliques int64  `json:"max_cliques"` // 0 = unlimited
	Timeout    string `json:"timeout"`     // Go duration, e.g. "30s"; "" = none
	Buffer     int    `json:"buffer"`      // cliques buffered between the enumeration and the stream; 0 = server default
	// PhaseTimers opts this job into per-phase timers (universe/pivot/et/
	// emit), reported in Stats and fed to the mced_phase_seconds histograms;
	// Config.PhaseTimers turns them on server-wide instead.
	PhaseTimers bool `json:"phase_timers,omitempty"`

	// Distributed-shard fields (internal/distrib.Descriptor). BranchRange
	// restricts the run to branch schedule positions [lo, hi); [0, 0] is
	// only legal on a session whose branch space is empty (the residue-only
	// shard). GraphCRC and Ordering, when present, must match this node's
	// session fingerprints or the request is rejected with 409 — the hard
	// incompatibility signal a coordinator never retries. A request carrying
	// BranchRange always executes locally, even on a node that is itself a
	// coordinator.
	BranchRange *[2]int `json:"branch_range,omitempty"`
	GraphCRC    string  `json:"graph_crc,omitempty"`
	Ordering    string  `json:"ordering,omitempty"`
}

// streamBufferFor clamps a client-requested stream buffer. The job's clique
// pipe holds up to that many cliques' lines, so one request must not be able
// to pin a giant buffer.
func (s *Server) streamBufferFor(requested int) int {
	const maxStreamBuffer = 1 << 16
	buffer := requested
	if buffer <= 0 {
		buffer = s.cfg.StreamBuffer
	}
	if buffer > maxStreamBuffer {
		buffer = maxStreamBuffer
	}
	return buffer
}

// options maps the request to the session-defining Options. The per-run
// knobs are deliberately excluded — MaxCliques and Workers travel through
// QueryOptions so that requests with different limits share one session.
func (req *jobRequest) options() (hbbmc.Options, error) {
	opts := hbbmc.DefaultOptions()
	if req.Algorithm != "" {
		a, err := hbbmc.ParseAlgorithm(req.Algorithm)
		if err != nil {
			return opts, err
		}
		opts.Algorithm = a
	}
	if req.ET != nil {
		opts.ET = *req.ET
	}
	if req.GR != nil {
		opts.GR = *req.GR
	}
	opts.SwitchDepth = req.SwitchDepth
	if req.EdgeOrder != "" {
		eo, err := hbbmc.ParseEdgeOrder(req.EdgeOrder)
		if err != nil {
			return opts, err
		}
		opts.EdgeOrder = eo
	}
	if req.Inner != "" {
		in, err := hbbmc.ParseInnerAlgorithm(req.Inner)
		if err != nil {
			return opts, err
		}
		opts.Inner = in
	}
	return opts, nil
}

func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if s.recovering.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is replaying its journal")
		return
	}
	var req jobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	typ := req.Type
	if typ == "" {
		typ = req.Mode
	}
	if typ == "" {
		typ = "enumerate"
	}
	if req.Type != "" && req.Mode != "" && req.Type != req.Mode {
		writeError(w, http.StatusBadRequest, "type %q and mode %q disagree", req.Type, req.Mode)
		return
	}
	if !slices.Contains(jobTypes, typ) {
		writeError(w, http.StatusBadRequest,
			"invalid type %q (enumerate, count, max_clique, top_k or kclique_count)", typ)
		return
	}
	switch typ {
	case "top_k", "kclique_count":
		if req.K < 1 {
			writeError(w, http.StatusBadRequest, "%s jobs need k >= 1, got %d", typ, req.K)
			return
		}
	default:
		if req.K != 0 {
			writeError(w, http.StatusBadRequest, "k applies to top_k and kclique_count jobs only")
			return
		}
	}
	if req.BranchRange != nil && typ != "enumerate" && typ != "count" {
		writeError(w, http.StatusBadRequest, "branch_range applies to enumerate and count jobs only")
		return
	}
	if req.MaxCliques < 0 {
		writeError(w, http.StatusBadRequest, "negative max_cliques %d", req.MaxCliques)
		return
	}
	var timeout time.Duration
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "invalid timeout %q", req.Timeout)
			return
		}
		timeout = d
	}
	opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The trace timeline starts here. A shard dispatch from a coordinator
	// carries a traceparent header; adopting its trace ID is what nests this
	// node's spans under the coordinator's job in the merged timeline.
	tr := obs.NewTrace()
	if h := r.Header.Get(obs.TraceparentHeader); h != "" {
		if id, ok := obs.ParseTraceparent(h); ok {
			tr = obs.NewTraceWithID(id, true)
		}
	}

	// Build (or fetch) the warm session first: preprocessing is not guarded
	// by worker slots — it is the cost the cache amortises away, and a miss
	// must not hold slots hostage while it runs.
	sessStart := time.Now()
	sess, cached, err := s.reg.Session(req.Dataset, opts)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := s.reg.Dataset(req.Dataset); !ok {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	tr.Record("session_acquire", sessStart, time.Since(sessStart))

	// A branch_range marks the request as a distributed shard: verify that
	// this node's graph, options and ordering agree with the coordinator's
	// fingerprints before narrowing the query to the interval. Disagreement
	// is a 409 — the descriptor simply is not executable here, no retry can
	// fix it.
	var branchLo, branchHi int
	if req.BranchRange != nil {
		lo, hi := req.BranchRange[0], req.BranchRange[1]
		if lo < 0 || hi < lo {
			writeError(w, http.StatusBadRequest, "invalid branch_range [%d,%d)", lo, hi)
			return
		}
		// Fingerprints first: when the graphs differ the branch counts
		// usually differ too, and "fingerprint mismatch" is the actionable
		// diagnosis, not the range arithmetic it breaks downstream.
		if req.GraphCRC != "" {
			if fp := distrib.FormatCRC(sess.GraphFingerprint()); fp != req.GraphCRC {
				writeError(w, http.StatusConflict, "dataset fingerprint mismatch: descriptor %s, this node %s", req.GraphCRC, fp)
				return
			}
		}
		if req.Ordering != "" {
			if fp := distrib.FormatCRC(sess.OrderingFingerprint()); fp != req.Ordering {
				writeError(w, http.StatusConflict, "ordering fingerprint mismatch: descriptor %s, this node %s", req.Ordering, fp)
				return
			}
		}
		branches := sess.NumTopBranches()
		switch {
		case lo == 0 && hi == 0 && branches > 0:
			writeError(w, http.StatusBadRequest, "empty branch_range on a session with %d top-level branches", branches)
			return
		case hi > branches:
			writeError(w, http.StatusConflict, "branch_range [%d,%d) exceeds this node's %d top-level branches", lo, hi, branches)
			return
		}
		branchLo, branchHi = lo, hi
	}

	buffer := s.streamBufferFor(req.Buffer)

	// Coordinator mode: a plain enumerate/count job on a node with peers is
	// not executed locally — it is split into branch-interval shards and
	// fanned out to the peers, the job here becoming the merge point of
	// their streams. The workload queries (max_clique, top_k, kclique_count)
	// have no branch-range decomposition protocol yet and run locally on the
	// coordinator instead.
	if len(s.cfg.Peers) > 0 && req.BranchRange == nil && (typ == "enumerate" || typ == "count") {
		req.Mode = typ
		s.startCoordinatedJob(w, &req, sess, cached, timeout, buffer, tr)
		return
	}

	workers := s.jobWorkers(req.Workers)
	q := hbbmc.QueryOptions{
		Workers:     workers,
		MaxCliques:  req.MaxCliques,
		BranchLo:    branchLo,
		BranchHi:    branchHi,
		PhaseTimers: req.PhaseTimers || s.cfg.PhaseTimers,
	}

	j := s.jobs.create(req.Dataset, typ, req.K, sess.Options(), q, workers, buffer, tr)
	s.log.Info("job created",
		slog.String("job", j.ID), slog.String("trace", tr.ID()),
		slog.String("dataset", req.Dataset), slog.String("type", typ),
		slog.Int("workers", workers), slog.Bool("session_cached", cached))
	j.mu.Lock()
	j.sessionCached = cached
	j.prepTime = sess.PrepTime()
	// Shard jobs (explicit branch_range, run on behalf of a remote
	// coordinator) are not journaled: the coordinator re-dispatches them
	// itself, and journaling them here would resume work nobody owns.
	j.journaled = s.jnl != nil && req.BranchRange == nil
	journaled := j.journaled
	j.mu.Unlock()
	if journaled {
		// The submission is durable before admission: a crash from here on
		// replays the job as queued (or further along) instead of losing it.
		jr := req
		jr.Type, jr.Mode = typ, ""
		if body, err := json.Marshal(&jr); err == nil {
			_ = s.jnl.AppendSubmit(j.ID, body)
		}
	}

	// Admission: hold the request while slots are busy, bounded by the
	// configured queue wait; saturation is a 429, never an oversubscribed
	// run. A DELETE landing while the job is queued aborts the wait, and so
	// does a client disconnect (r.Context()); neither counts as saturation.
	if err := s.admit(r.Context(), j, workers, s.cfg.QueueWait); err != nil {
		switch {
		case j.cancelReason.Load() != nil:
			// Cancelled while queued: the job never runs.
			s.jobs.end(j, StateStopped, *j.cancelReason.Load(), "", nil)
			writeJSON(w, http.StatusOK, j.View())
		case r.Context().Err() != nil:
			// The client gave up mid-wait; don't let its impatience read
			// as saturation in the metrics.
			s.jobs.end(j, StateFailed, "", "client disconnected during admission", nil)
		default:
			s.m.admissionRejected.Add(1)
			s.jobs.end(j, StateFailed, "",
				fmt.Sprintf("admission: %d worker slots saturated (capacity %d)", workers, s.slots.Capacity()), nil)
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.QueueWait/time.Second)+1))
			writeJSON(w, http.StatusTooManyRequests, j.View())
		}
		return
	}
	s.launch(j, timeout, func(ctx context.Context) { s.runJob(ctx, j, sess) })
	writeJSON(w, http.StatusAccepted, j.View())
}

// jobWorkers clamps a requested worker count to at least one and at most
// GOMAXPROCS and the slot capacity: the core driver never runs more than
// GOMAXPROCS goroutines, so holding more slots than that would starve
// other jobs off an idle machine.
func (s *Server) jobWorkers(requested int) int {
	return max(1, min(requested, runtime.GOMAXPROCS(0), s.slots.Capacity()))
}

// admit queues j for its worker slots, FIFO behind earlier jobs. wait
// bounds the queue wait: negative waits until granted, 0 grants immediately
// or not at all. The wait also ends when parent does (a client request's
// context) or when the job is cancelled. A grant that a cancel raced is
// handed straight back. On success the slots are held and the queue wait
// is recorded (job view, "queued" span, mced_queue_wait_seconds); otherwise
// it returns ErrSaturated, and the caller tells a cancel (j.cancelReason)
// from saturation.
func (s *Server) admit(parent context.Context, j *Job, workers int, wait time.Duration) error {
	var ctx context.Context
	var cancel context.CancelFunc
	if wait > 0 {
		ctx, cancel = context.WithTimeout(parent, wait)
	} else {
		ctx, cancel = context.WithCancel(parent)
	}
	defer cancel()
	if wait == 0 {
		cancel() // no waiting: an immediate grant or nothing
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-j.cancelled:
			cancel()
		case <-watchDone:
		}
	}()
	start := time.Now()
	if err := s.slots.Acquire(ctx, workers); err != nil {
		return err
	}
	if j.cancelReason.Load() != nil {
		// Cancelled in the instant between the grant and here.
		s.slots.Release(workers)
		return ErrSaturated
	}
	queued := time.Since(start)
	j.mu.Lock()
	j.queueWait = queued
	j.mu.Unlock()
	j.trace.Record("queued", start, queued)
	s.obs.queueWait.ObserveDuration(queued)
	return nil
}

// launch starts an admitted (or, for a coordinator job, slot-free) job:
// it builds the run context, bounded by timeout when positive, marks the
// job running and calls run on its own goroutine, cancelling the context
// once run returns.
func (s *Server) launch(j *Job, timeout time.Duration, run func(ctx context.Context)) {
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j.mu.Lock()
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	// A DELETE that landed before j.cancel existed was recorded but not
	// acted on; honour it now — the run stops at its first cancellation poll.
	if j.cancelReason.Load() != nil {
		cancel()
	}
	s.m.jobsQueued.Add(-1)
	s.m.jobsRunning.Add(1)
	go func() {
		defer cancel()
		run(ctx)
	}()
}

// conclude ends a job whose run returned. Scalar jobs deliver their
// cliques as a number, accounted here once the result is known.
func (s *Server) conclude(ctx context.Context, j *Job, stats *hbbmc.Stats, runErr error) {
	if j.cliques == nil && stats != nil {
		s.m.cliquesEmitted.Add(stats.Cliques)
	}
	switch {
	case runErr == nil:
		// Complete run; a cancellation that raced the final branch and was
		// never observed by the driver does not repaint the outcome.
		s.jobs.end(j, StateDone, "", "", stats)
	case stats != nil && (errors.Is(runErr, context.Canceled) ||
		errors.Is(runErr, context.DeadlineExceeded) || errors.Is(runErr, hbbmc.ErrStopped)):
		s.jobs.end(j, StateStopped, stopReason(ctx, j, runErr), "", stats)
	default:
		// Any other error fails the job, and so does one that left no Stats.
		s.jobs.end(j, StateFailed, "", runErr.Error(), stats)
	}
}

// stopReason names why a run stopped early: the first requestCancel
// reason, else the job's deadline, else its clique budget.
func stopReason(ctx context.Context, j *Job, runErr error) string {
	switch {
	case j.cancelReason.Load() != nil:
		return *j.cancelReason.Load()
	case errors.Is(runErr, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		return "deadline"
	case errors.Is(runErr, hbbmc.ErrStopped):
		return "max_cliques"
	}
	return "cancelled"
}

// enumerateHook builds the BranchDone hook of a journaled enumerate job.
// It runs on the core's single releasing goroutine, strictly after the
// cliques of the unit it reports reached the visitor (ordered emission), so
// it can append a durable checkpoint AND put the matching {"ckpt":W}
// marker into the same pipe with nothing out of order on either side.
// base seeds the cumulative totals when the run resumes a durable prefix.
func (s *Server) enumerateHook(j *Job, base journal.Ckpt) func(lo, hi int, cliques int64, max int) {
	cum := base.Cliques
	maxSize := base.MaxSize
	last := time.Now()
	prevW := j.Query.BranchLo
	interval := s.cfg.CheckpointInterval
	return func(lo, hi int, cliques int64, max int) {
		cum += cliques
		if max > maxSize {
			maxSize = max
		}
		// W=0 is not a valid resume point: resuming with BranchLo=0 would
		// re-emit the preprocessing residue the W=0 call reported.
		if hi < 1 || time.Since(last) < interval {
			return
		}
		if s.jnl.AppendCkpt(j.ID, hi, cum, maxSize) != nil {
			return // wedged or failing journal: keep enumerating, stop claiming
		}
		// The span covers the branch interval this checkpoint made durable,
		// timed from the previous durable point.
		j.trace.RecordRange("checkpoint", prevW, hi, last, time.Since(last))
		prevW = hi
		last = time.Now()
		j.cliques.mark(hi)
	}
}

// countHook builds the BranchDone hook of a journaled count job. Count runs
// are unordered — hook calls arrive out of schedule order from the workers
// (serialized, but interleaved) — so completed intervals are merged into a
// contiguous-prefix watermark and only the watermark is checkpointed.
func (s *Server) countHook(j *Job, base journal.Ckpt, lo int) func(lo, hi int, cliques int64, max int) {
	type interval struct {
		hi      int
		cliques int64
	}
	pending := make(map[int]interval)
	w := lo // contiguous watermark: residue + [lo, w) are accounted
	prevW := lo
	cum := base.Cliques
	maxSize := base.MaxSize
	last := time.Now()
	intervalMin := s.cfg.CheckpointInterval
	return func(clo, chi int, cliques int64, max int) {
		if max > maxSize {
			maxSize = max
		}
		if clo == 0 && chi == 0 {
			cum += cliques // the residue call; always first when lo == 0
		} else {
			pending[clo] = interval{hi: chi, cliques: cliques}
		}
		for {
			iv, ok := pending[w]
			if !ok {
				break
			}
			delete(pending, w)
			cum += iv.cliques
			w = iv.hi
		}
		if w < 1 || time.Since(last) < intervalMin {
			return
		}
		if s.jnl.AppendCkpt(j.ID, w, cum, maxSize) == nil {
			j.trace.RecordRange("checkpoint", prevW, w, last, time.Since(last))
			prevW = w
			last = time.Now()
		}
	}
}

// runJob executes one admitted job — dispatching on its type — and always
// releases its worker slots before concluding it. Journaled jobs
// additionally record the running fingerprints and durable branch-progress
// checkpoints.
func (s *Server) runJob(ctx context.Context, j *Job, sess *hbbmc.Session) {
	j.mu.Lock()
	journaled := j.journaled
	base := j.ckptBase
	j.mu.Unlock()
	q := j.Query
	if journaled {
		// The running record anchors resume compatibility: the graph CRC and
		// branch count a restart must reproduce before skipping any branch.
		_ = s.jnl.AppendRunning(j.ID, distrib.FormatCRC(sess.GraphFingerprint()),
			j.Opts.SessionKey(), sess.NumTopBranches())
		switch j.Mode {
		case "enumerate":
			q.BranchDone = s.enumerateHook(j, base)
			q.OrderedEmit = true
		case "count":
			q.BranchDone = s.countHook(j, base, q.BranchLo)
		}
	}
	var stats *hbbmc.Stats
	var runErr error
	switch j.Mode {
	case "max_clique":
		var clique []int32
		clique, stats, runErr = sess.MaxClique(ctx, q)
		j.mu.Lock()
		j.maxClique = clique
		j.mu.Unlock()
	case "top_k":
		var cliques [][]int32
		cliques, stats, runErr = sess.TopK(ctx, j.K, q)
		// The results exist only after the full enumeration; put them into
		// the clique pipe now. The pipe may be smaller than k, so a missing
		// client still exerts backpressure here — bounded by k lines rather
		// than the whole enumeration.
		for _, c := range cliques {
			if !j.cliques.put(c, ctx.Done()) {
				break
			}
		}
	case "kclique_count":
		_, stats, runErr = sess.CountKCliques(ctx, j.K, q)
	default:
		var visit hbbmc.Visitor
		if j.cliques != nil {
			// The bounded pipe is the backpressure: a slow (or absent)
			// streaming client blocks the enumeration here until it drains
			// or the job is cancelled.
			done := ctx.Done()
			visit = func(c []int32) bool { return j.cliques.put(c, done) }
		}
		stats, runErr = sess.EnumerateWith(ctx, q, visit)
	}
	if stats != nil && base != (journal.Ckpt{}) {
		// A resumed run enumerated only [cursor, N); fold the durable prefix
		// back in so the job reports the whole logical enumeration.
		stats.Cliques += base.Cliques
		if base.MaxSize > stats.MaxCliqueSize {
			stats.MaxCliqueSize = base.MaxSize
		}
	}
	s.slots.Release(j.Workers)
	s.conclude(ctx, j, stats, runErr)
}

// streamTrailer is the stream's final NDJSON record. Stats lets a
// distributed coordinator collect a shard's counters from the same stream
// that carried its cliques, without a follow-up status request; Trace does
// the same for the shard's span timeline, which the coordinator merges into
// its own job's trace.
type streamTrailer struct {
	Done       bool           `json:"done"`
	State      JobState       `json:"state"`
	StopReason string         `json:"stop_reason,omitempty"`
	Error      string         `json:"error,omitempty"`
	Cliques    int64          `json:"cliques"`
	Stats      *hbbmc.Stats   `json:"stats,omitempty"`
	Trace      *obs.TraceView `json:"trace,omitempty"`
}

// handleStreamCliques streams a job's cliques as NDJSON ({"c":[...]} per
// line, a {"done":true,...} trailer). Exactly one client may stream a job;
// the stream delivers every clique exactly once. Each wake-up takes every
// line pending in the job's clique pipe and writes it with one flush, so a
// live client sees a trickle of cliques promptly and a burst without a
// per-line flush syscall storm. A client disconnect cancels the job —
// without its one consumer the enumeration would otherwise block on the
// full pipe until the deadline.
//
//hbbmc:ctxpoll
func (s *Server) handleStreamCliques(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if j.cliques == nil {
		writeError(w, http.StatusBadRequest, "job %s is a %s job; it has no clique stream", j.ID, j.Mode)
		return
	}
	cursor := 0
	if v := r.URL.Query().Get("resume_after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "invalid resume_after %q", v)
			return
		}
		cursor = n
	}
	if !j.streamClaim.CompareAndSwap(false, true) {
		writeError(w, http.StatusConflict, "job %s already has a streaming client", j.ID)
		return
	}
	j.mu.Lock()
	rs := j.resume
	j.mu.Unlock()
	switch {
	case rs != nil:
		// A journal-restored job has no producer yet: start its resume run
		// from the client's cursor before entering the stream loop.
		if status, err := s.startResume(j, cursor); err != nil {
			j.streamClaim.Store(false)
			writeError(w, status, "%v", err)
			return
		}
	case cursor != 0:
		j.streamClaim.Store(false)
		writeError(w, http.StatusBadRequest,
			"job %s has no journaled progress to resume; resume_after applies to restored jobs", j.ID)
		return
	}

	drainStart := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	clientGone := r.Context().Done()
	var lines []byte
	for closed := false; !closed; {
		select {
		case <-j.cliques.ready:
		case <-clientGone:
			j.requestCancel("client disconnected")
			return
		}
		var n int
		lines, n, closed = j.cliques.take(lines)
		if len(lines) == 0 {
			continue
		}
		if _, err := w.Write(lines); err != nil {
			j.requestCancel("client disconnected")
			return
		}
		flush()
		j.delivered.Add(int64(n))
		s.m.cliquesEmitted.Add(int64(n))
	}

	// The pipe closes only after the terminal state is recorded.
	<-j.Done()
	// The drain span covers the whole streaming handler; recorded before the
	// trailer snapshots the timeline so the client (and a coordinator
	// merging shard traces) sees it.
	j.trace.Record("drain", drainStart, time.Since(drainStart))
	v := j.View()
	tv := j.trace.View()
	_ = json.NewEncoder(w).Encode(streamTrailer{
		Done:       true,
		State:      v.State,
		StopReason: v.StopReason,
		Error:      v.Error,
		Cliques:    j.delivered.Load(),
		Stats:      v.Stats,
		Trace:      &tv,
	})
	flush()
}

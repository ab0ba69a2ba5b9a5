package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/obs"
	"github.com/graphmining/hbbmc/internal/service/journal"
)

// JobState is one step of the job lifecycle:
//
//	queued -> running -> done | stopped | failed
//
// "done" is a complete enumeration, "stopped" an intentional early exit
// (clique budget, cancellation, deadline), "failed" an error — including a
// 429'd admission, so rejected jobs remain observable.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateStopped JobState = "stopped"
	StateFailed  JobState = "failed"
)

func (s JobState) terminal() bool {
	return s == StateDone || s == StateStopped || s == StateFailed
}

// jobTypes lists the queries a job can run; each has its mced_jobs_type_
// submission counter. enumerate and top_k stream their cliques over
// /cliques, the others report through Stats.
var jobTypes = []string{"enumerate", "count", "max_clique", "top_k", "kclique_count"}

// Job is one enumeration or count run against a registered dataset. The
// mutable fields are guarded by mu; cliques is the bounded pipe between the
// enumeration's Visitor and the NDJSON stream handler — a full pipe blocks
// the workers, which is the service's backpressure.
type Job struct {
	ID      string
	Dataset string
	// Mode is the resolved job type: "enumerate", "count", "max_clique",
	// "top_k" or "kclique_count" (the request's "type" and legacy "mode"
	// fields are aliases for it).
	Mode    string
	K       int // the k of a top_k or kclique_count job
	Opts    hbbmc.Options
	Query   hbbmc.QueryOptions
	Workers int // worker slots held while running
	// trace is the job's span timeline: assigned at creation (a coordinator
	// dispatch adopts the propagated trace ID), immutable afterwards, and
	// internally synchronized — recorded into without holding mu.
	trace *obs.Trace

	mu sync.Mutex
	//hbbmc:guardedby mu
	state JobState
	//hbbmc:guardedby mu
	stopReason string
	//hbbmc:guardedby mu
	errMsg string
	//hbbmc:guardedby mu
	stats *hbbmc.Stats
	// maxClique is the witness clique of a finished max_clique job.
	//hbbmc:guardedby mu
	maxClique []int32
	//hbbmc:guardedby mu
	created time.Time
	//hbbmc:guardedby mu
	started time.Time
	//hbbmc:guardedby mu
	finished time.Time

	//hbbmc:guardedby mu
	sessionCached bool
	//hbbmc:guardedby mu
	prepTime time.Duration
	// queueWait is the admission wait this job paid before its worker slots
	// were granted (zero for coordinator jobs, which hold no local slots).
	//hbbmc:guardedby mu
	queueWait time.Duration
	// sharded marks a coordinator job: its branch intervals ran on peer
	// nodes and it held no local worker slots.
	//hbbmc:guardedby mu
	sharded bool
	// journaled marks a job recorded in the write-ahead journal; its
	// terminal state (except a server-shutdown stop, which must stay
	// resumable) is appended there too.
	//hbbmc:guardedby mu
	journaled bool
	// resume holds the journal-replayed progress of a restored job until a
	// resume run consumes it; nil on fresh jobs.
	//hbbmc:guardedby mu
	resume *resumeState
	// ckptBase is the durable prefix a resumed run starts from: its totals
	// are folded into the run's final Stats so the job reports the whole
	// logical enumeration, not just the re-run suffix.
	//hbbmc:guardedby mu
	ckptBase journal.Ckpt

	//hbbmc:guardedby mu
	cancel       context.CancelFunc
	cancelReason atomic.Pointer[string]
	// cancelled closes on the first requestCancel, before j.cancel exists:
	// it is the signal that reaches a job still waiting in admission.
	cancelled   chan struct{}
	cancelOnce  sync.Once
	cliques     *cliquePipe // nil for the job types without a clique stream
	streamClaim atomic.Bool
	delivered   atomic.Int64
	done        chan struct{} // closed when the state turns terminal
}

// resumeState is the journal-replayed progress of one restored job.
type resumeState struct {
	req       jobRequest // the original submission, replayed verbatim
	crc       string     // graph fingerprint the job ran against ("" = never ran)
	branches  int        // NumTopBranches of the original session
	watermark int        // highest durable checkpoint (0 = none)
	ckpts     map[int]journal.Ckpt
}

// JobView is the JSON representation of a Job. Type and Mode carry the same
// value — Type is the canonical name, Mode the pre-workload-query alias kept
// for older clients.
type JobView struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	Type    string `json:"type"`
	Mode    string `json:"mode"`
	// K is the k of a top_k or kclique_count job.
	K          int      `json:"k,omitempty"`
	Algorithm  string   `json:"algorithm"`
	State      JobState `json:"state"`
	StopReason string   `json:"stop_reason,omitempty"`
	Error      string   `json:"error,omitempty"`
	Workers    int      `json:"workers"`
	// SessionCached reports whether the job reused a warm session (its
	// query paid zero ordering time); PrepTimeNS is the cached
	// preprocessing cost either way.
	SessionCached bool          `json:"session_cached"`
	PrepTimeNS    time.Duration `json:"prep_time_ns"`
	// Sharded marks a coordinator job (work fanned out to peers);
	// BranchRange is the [lo, hi) schedule interval of a shard job running
	// on behalf of a remote coordinator. A plain local job has neither.
	Sharded     bool    `json:"sharded,omitempty"`
	BranchRange *[2]int `json:"branch_range,omitempty"`
	// Delivered counts cliques handed to the streaming client so far.
	Delivered int64 `json:"cliques_delivered"`
	// TraceID identifies the job's span timeline (GET /v1/jobs/{id}/trace);
	// a shard job dispatched by a coordinator carries the coordinator's ID.
	TraceID string `json:"trace_id,omitempty"`
	// QueueWaitMS is the admission wait the job paid before its worker
	// slots were granted, in milliseconds.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// MaxClique is the witness of a finished max_clique job (sorted original
	// vertex ids); its size is Stats.MaxCliqueSize. A kclique_count job's
	// count is Stats.KCliques.
	MaxClique []int32      `json:"max_clique,omitempty"`
	Stats     *hbbmc.Stats `json:"stats,omitempty"`
	CreatedAt string       `json:"created_at"`
	StartedAt string       `json:"started_at,omitempty"`
	DoneAt    string       `json:"finished_at,omitempty"`
}

// View snapshots the job for JSON rendering.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:            j.ID,
		Dataset:       j.Dataset,
		Type:          j.Mode,
		Mode:          j.Mode,
		K:             j.K,
		MaxClique:     j.maxClique,
		Algorithm:     j.Opts.Algorithm.String(),
		State:         j.state,
		StopReason:    j.stopReason,
		Error:         j.errMsg,
		Workers:       j.Workers,
		SessionCached: j.sessionCached,
		PrepTimeNS:    j.prepTime,
		Sharded:       j.sharded,
		Delivered:     j.delivered.Load(),
		TraceID:       j.trace.ID(),
		QueueWaitMS:   float64(j.queueWait) / float64(time.Millisecond),
		Stats:         j.stats,
		CreatedAt:     j.created.UTC().Format(time.RFC3339Nano),
	}
	if j.Query.BranchLo != 0 || j.Query.BranchHi != 0 {
		v.BranchRange = &[2]int{j.Query.BranchLo, j.Query.BranchHi}
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.DoneAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns the channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// requestCancel asks a job to stop; reason is recorded as the stop reason
// ("cancelled", "client disconnected"). The first reason wins. It works in
// every non-terminal state: a running job's context is cancelled, and a job
// still queued in admission observes the cancelled channel and never runs.
func (j *Job) requestCancel(reason string) {
	j.cancelReason.CompareAndSwap(nil, &reason)
	j.cancelOnce.Do(func() { close(j.cancelled) })
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// jobManager tracks every job the server admitted (and the rejected ones,
// kept as failed for observability) and prunes terminal jobs beyond the
// history limit.
type jobManager struct {
	mu sync.Mutex
	//hbbmc:guardedby mu
	jobs map[string]*Job
	//hbbmc:guardedby mu
	order []string // creation order, for listing and pruning
	//hbbmc:guardedby mu
	seq        int64
	maxHistory int
	m          *metrics
	// jnl is the write-ahead journal (nil when the server runs without one);
	// terminal transitions of journaled jobs are appended to it.
	jnl *journal.Journal
	// onTerminal runs on every terminal transition, after the terminal state
	// is recorded and before the done channel closes — the server's
	// observability hook (latency histograms, trace closure, logging).
	onTerminal func(*Job)
	// stall times the blocked puts of every clique pipe this manager creates.
	stall *obs.Histogram
}

func newJobManager(maxHistory int, m *metrics) *jobManager {
	return &jobManager{jobs: make(map[string]*Job), maxHistory: maxHistory, m: m}
}

// newJob builds a queued job, the one constructor of fresh and
// journal-restored jobs. The job types that deliver cliques over /cliques
// get a clique pipe of buffer cliques; the scalar-result types report
// through Stats instead.
func (jm *jobManager) newJob(id, dataset, typ string, k int, opts hbbmc.Options, buffer int, tr *obs.Trace) *Job {
	j := &Job{
		ID:        id,
		Dataset:   dataset,
		Mode:      typ,
		K:         k,
		Opts:      opts,
		trace:     tr,
		state:     StateQueued,
		created:   time.Now(),
		cancelled: make(chan struct{}),
		done:      make(chan struct{}),
	}
	if typ == "enumerate" || typ == "top_k" {
		j.cliques = newCliquePipe(buffer, jm.stall)
	}
	return j
}

func (jm *jobManager) create(dataset, typ string, k int, opts hbbmc.Options, q hbbmc.QueryOptions, workers, buffer int, tr *obs.Trace) *Job {
	jm.mu.Lock()
	jm.seq++
	j := jm.newJob(fmt.Sprintf("j%06d", jm.seq), dataset, typ, k, opts, buffer, tr)
	j.Query, j.Workers = q, workers
	jm.jobs[j.ID] = j
	jm.order = append(jm.order, j.ID)
	jm.pruneLocked()
	jm.mu.Unlock()
	jm.m.jobsQueued.Add(1)
	if c := jm.m.jobsOfType[typ]; c != nil {
		c.Add(1)
	}
	return j
}

// restore inserts a journal-replayed job under its original ID and bumps
// the sequence past it, so fresh submissions never collide with restored
// history. Terminal restores are history only; non-terminal ones re-enter
// the queued gauge.
func (jm *jobManager) restore(j *Job) {
	jm.mu.Lock()
	if _, ok := jm.jobs[j.ID]; ok {
		jm.mu.Unlock()
		return
	}
	jm.jobs[j.ID] = j
	jm.order = append(jm.order, j.ID)
	var n int64
	if _, err := fmt.Sscanf(j.ID, "j%06d", &n); err == nil && n > jm.seq {
		jm.seq = n
	}
	jm.mu.Unlock()
	if !j.State().terminal() {
		jm.m.jobsQueued.Add(1)
	}
}

// journalTerminal appends a journaled job's terminal record. A stop caused
// by the server's own shutdown is deliberately not recorded: the job must
// replay as interrupted so the restarted daemon resumes it.
func (jm *jobManager) journalTerminal(j *Job) {
	if jm.jnl == nil {
		return
	}
	j.mu.Lock()
	journaled := j.journaled
	state, reason, errMsg := j.state, j.stopReason, j.errMsg
	stats := j.stats
	j.mu.Unlock()
	if !journaled || reason == "server shutdown" {
		return
	}
	var raw json.RawMessage
	if stats != nil {
		raw, _ = json.Marshal(stats)
	}
	// Best-effort: a wedged (crash-injected) or failing journal must not
	// change the job's outcome, only what a restart can recover.
	_ = jm.jnl.AppendTerminal(j.ID, string(state), reason, errMsg, raw)
}

// pruneLocked drops the oldest terminal jobs beyond the history limit so a
// long-running daemon's job table stays bounded. Live jobs are never
// dropped.
func (jm *jobManager) pruneLocked() {
	excess := len(jm.jobs) - jm.maxHistory
	if excess <= 0 {
		return
	}
	kept := jm.order[:0]
	for _, id := range jm.order {
		j := jm.jobs[id]
		if j == nil {
			continue
		}
		if excess > 0 && j.State().terminal() {
			delete(jm.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	jm.order = append([]string(nil), kept...)
}

func (jm *jobManager) get(id string) (*Job, bool) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	j, ok := jm.jobs[id]
	return j, ok
}

func (jm *jobManager) list() []*Job {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	out := make([]*Job, 0, len(jm.jobs))
	for _, j := range jm.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// end is the one terminal transition, from queued or running. In order it
// records the outcome, moves the gauges and the state's counter, journals
// the terminal record, runs onTerminal, closes done and finally closes the
// clique pipe — after the state is recorded, so a reader that drains the
// pipe observes the final state and stats.
func (jm *jobManager) end(j *Job, state JobState, reason, msg string, stats *hbbmc.Stats) {
	j.mu.Lock()
	wasRunning := j.state == StateRunning
	j.state = state
	j.stopReason = reason
	j.errMsg = msg
	j.stats = stats
	j.finished = time.Now()
	j.mu.Unlock()
	if wasRunning {
		jm.m.jobsRunning.Add(-1)
	} else {
		jm.m.jobsQueued.Add(-1)
	}
	switch state {
	case StateDone:
		jm.m.jobsDone.Add(1)
	case StateStopped:
		jm.m.jobsStopped.Add(1)
	default:
		jm.m.jobsFailed.Add(1)
	}
	jm.journalTerminal(j)
	if jm.onTerminal != nil {
		jm.onTerminal(j)
	}
	close(j.done)
	j.cliques.close()
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/chaos"
	"github.com/graphmining/hbbmc/internal/distrib"
	"github.com/graphmining/hbbmc/internal/obs"
	"github.com/graphmining/hbbmc/internal/service/journal"
)

// This file is the crash-recovery half of the journal: Open replays the
// write-ahead log into a fresh Server, re-registers the journaled datasets,
// restores the job table (terminal jobs as history, interrupted ones as
// queued with their durable progress attached) and resumes the interrupted
// work — scalar jobs autonomously from their branch watermark, streaming
// jobs lazily when a client reclaims the stream with ?resume_after=.

// Open builds a journaled Server from cfg: it replays cfg.JournalDir,
// restores datasets and jobs, and resumes interrupted jobs. With an empty
// JournalDir it is identical to New. While the replayed state is being
// applied the server reports 503 on /readyz and defers job submission.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.JournalDir == "" {
		if err := s.registerBootDatasets(cfg.BootDatasets); err != nil {
			return nil, err
		}
		return s, nil
	}
	jnl, rep, err := journal.Open(cfg.JournalDir, journal.Options{})
	if err != nil {
		return nil, err
	}
	s.jnl = jnl
	s.jobs.jnl = jnl
	jnl.SetSyncObserver(s.obs.journalFsync.ObserveDuration)
	if err := s.registerBootDatasets(cfg.BootDatasets); err != nil {
		_ = jnl.Close()
		return nil, err
	}
	s.m.journalReplays.Add(1)
	s.recovering.Store(true)
	s.restoreDatasets(rep)
	restored := s.restoreJobs(rep)
	go func() {
		// service.replay is the chaos point the readiness test arms with a
		// delay: /readyz answers 503 until recovery completes.
		_ = chaos.Inject("service.replay")
		s.resumeRestored(restored)
		s.recovering.Store(false)
	}()
	return s, nil
}

// registerBootDatasets applies cfg.BootDatasets before the journal replay
// can resume any job, journaling each like an API registration so a later
// restart without the boot flags still resolves them. Registry.Register
// rejects duplicate names, so a boot registration wins over a replayed one.
func (s *Server) registerBootDatasets(specs []DatasetSpec) error {
	for _, d := range specs {
		format := d.Format
		if format == "" {
			format = "auto"
		}
		info, err := s.reg.Register(d.Name, d.Path, format)
		if err != nil {
			return fmt.Errorf("boot dataset %q: %w", d.Name, err)
		}
		if s.jnl != nil {
			_ = s.jnl.AppendDataset(info.Name, info.Path, d.Format)
		}
	}
	return nil
}

// restoreDatasets re-registers the journaled datasets. A registration that
// fails (file moved, renamed) is skipped: the jobs referencing it fail at
// resume time with an actionable "unknown dataset" error instead of
// bricking the whole replay.
func (s *Server) restoreDatasets(rep *journal.Replay) {
	for _, d := range rep.Datasets {
		format := d.Format
		if format == "" {
			format = "auto"
		}
		_, _ = s.reg.Register(d.Name, d.Path, format)
	}
}

// restoreJobs rebuilds the job table from the replay: terminal jobs become
// plain history, interrupted ones re-enter as queued carrying their durable
// progress in j.resume. It returns the interrupted jobs.
func (s *Server) restoreJobs(rep *journal.Replay) []*Job {
	var restored []*Job
	for _, id := range rep.Order {
		jr := rep.Jobs[id]
		if jr == nil {
			continue
		}
		j, reqOK := s.restoreJob(jr)
		s.jobs.restore(j)
		if j.State().terminal() {
			continue
		}
		s.m.resumeJobsRestored.Add(1)
		if !reqOK {
			// The submission record did not decode (a journal written by an
			// incompatible daemon); the job cannot be re-run faithfully.
			s.failResume(j, fmt.Errorf("journal: job %s: undecodable submission record", j.ID))
			continue
		}
		restored = append(restored, j)
	}
	return restored
}

// restoreJob builds one Job from its replayed journal state.
func (s *Server) restoreJob(jr *journal.JobReplay) (*Job, bool) {
	var req jobRequest
	reqOK := json.Unmarshal(jr.Req, &req) == nil
	typ := req.Type
	if typ == "" {
		typ = "enumerate"
	}
	opts, err := req.options()
	if err != nil {
		opts = hbbmc.DefaultOptions()
		reqOK = false
	}
	// The original trace died with the crashed process; the restored job
	// gets a fresh timeline covering its resume. Submission time is not
	// journaled; restore time stands in.
	j := s.jobs.newJob(jr.ID, req.Dataset, typ, req.K, opts, s.streamBufferFor(req.Buffer), obs.NewTrace())
	j.mu.Lock()
	defer j.mu.Unlock()
	if !jr.Terminal() {
		j.journaled = true
		j.resume = &resumeState{
			req:       req,
			crc:       jr.CRC,
			branches:  jr.Branches,
			watermark: jr.Watermark,
			ckpts:     jr.Ckpts,
		}
		return j, reqOK
	}
	j.state = JobState(jr.State)
	j.stopReason = jr.Reason
	j.errMsg = jr.Err
	if len(jr.Stats) > 0 {
		var st hbbmc.Stats
		if json.Unmarshal(jr.Stats, &st) == nil {
			j.stats = &st
		}
	}
	// History only: streaming a finished restored job yields just the
	// trailer, same as streaming any finished job late.
	j.cliques.close()
	close(j.done)
	return j, reqOK
}

// resumeRestored kicks off the autonomous resumes. Scalar jobs (count,
// max_clique, kclique_count) need no client to deliver to, so they re-run
// immediately — count from its durable branch watermark, the others from
// scratch (their full re-run is idempotent). Streaming jobs (enumerate,
// top_k) stay queued until a client reclaims the stream, passing the last
// checkpoint marker it saw as ?resume_after=.
func (s *Server) resumeRestored(restored []*Job) {
	for _, j := range restored {
		switch j.Mode {
		case "count", "max_clique", "kclique_count":
			go s.resumeScalar(j)
		}
	}
}

// resumePlan is a validated, admissible resume: the session to run against
// and the narrowed query that re-runs only the branches past the cursor.
type resumePlan struct {
	sess    *hbbmc.Session
	cached  bool
	base    journal.Ckpt
	cursor  int
	workers int
	q       hbbmc.QueryOptions
	timeout time.Duration
	// budgetDone: the durable prefix already satisfies the job's original
	// MaxCliques budget; there is nothing left to run.
	budgetDone bool
}

// planResume validates a resume of j from cursor and builds the plan. The
// bool reports whether a failure is permanent (the job can never resume:
// fingerprint mismatch, vanished dataset) as opposed to a bad cursor the
// client can correct.
func (s *Server) planResume(j *Job, rs *resumeState, cursor int) (*resumePlan, bool, int, error) {
	var base journal.Ckpt
	if cursor > 0 {
		ck, ok := rs.ckpts[cursor]
		if !ok {
			return nil, false, http.StatusBadRequest,
				fmt.Errorf("job %s has no durable checkpoint at %d (highest watermark %d)", j.ID, cursor, rs.watermark)
		}
		base = ck
	}
	opts, err := rs.req.options()
	if err != nil {
		return nil, true, http.StatusConflict, fmt.Errorf("resume %s: %v", j.ID, err)
	}
	sess, cached, err := s.reg.Session(rs.req.Dataset, opts)
	if err != nil {
		return nil, true, http.StatusConflict, fmt.Errorf("resume %s: %v", j.ID, err)
	}
	// The fingerprints recorded at the original run gate every branch skip:
	// a changed graph or ordering makes the journaled watermark meaningless.
	if rs.crc != "" {
		if fp := distrib.FormatCRC(sess.GraphFingerprint()); fp != rs.crc {
			return nil, true, http.StatusConflict,
				fmt.Errorf("resume %s: dataset fingerprint %s, journal recorded %s", j.ID, fp, rs.crc)
		}
	}
	branches := sess.NumTopBranches()
	if rs.branches != 0 && rs.branches != branches {
		return nil, true, http.StatusConflict,
			fmt.Errorf("resume %s: session has %d top-level branches, journal recorded %d", j.ID, branches, rs.branches)
	}
	if cursor > branches {
		return nil, true, http.StatusConflict,
			fmt.Errorf("resume %s: cursor %d exceeds the session's %d top-level branches", j.ID, cursor, branches)
	}
	workers := s.jobWorkers(rs.req.Workers)
	q := hbbmc.QueryOptions{
		Workers:     workers,
		MaxCliques:  rs.req.MaxCliques,
		PhaseTimers: s.cfg.PhaseTimers || rs.req.PhaseTimers,
	}
	if cursor > 0 {
		q.BranchLo, q.BranchHi = cursor, branches
	}
	plan := &resumePlan{
		sess: sess, cached: cached, base: base, cursor: cursor, workers: workers,
	}
	if q.MaxCliques > 0 {
		rem := q.MaxCliques - base.Cliques
		if rem <= 0 {
			plan.budgetDone = true
			rem = 0
		}
		q.MaxCliques = rem
	}
	plan.q = q
	if rs.req.Timeout != "" {
		if d, err := time.ParseDuration(rs.req.Timeout); err == nil && d > 0 {
			plan.timeout = d
		}
	}
	return plan, false, 0, nil
}

// claimResume takes exclusive ownership of a restored job's pending
// resume. Exactly one claimant wins: the stream reclaim, the autonomous
// scalar resume, a cancellation or the shutdown sweep — whoever claims
// owns the job's next state transition.
func (s *Server) claimResume(j *Job) *resumeState {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil
	}
	rs := j.resume
	j.resume = nil
	return rs
}

// unclaimResume puts a claimed resume back (a transient failure such as a
// saturated admission leaves the job intact and resumable).
func (s *Server) unclaimResume(j *Job, rs *resumeState) {
	j.mu.Lock()
	if j.state == StateQueued {
		j.resume = rs
	}
	j.mu.Unlock()
}

// stopUnclaimedResume retires a restored job whose resume nobody has
// claimed: unlike a live queued job, no goroutine owns it, so the
// cancellation and shutdown paths must transition it directly.
func (s *Server) stopUnclaimedResume(j *Job, reason string) bool {
	rs := s.claimResume(j)
	if rs == nil {
		return false
	}
	s.jobs.end(j, StateStopped, reason, "", nil)
	return true
}

// launchResume admits and starts a planned resume. wait bounds the slot
// admission (negative = wait until granted or cancelled). A cancellation
// during admission stops the job cleanly; a saturated admission under a
// bounded wait returns 429 with the job left intact and resumable. The
// caller holds the resume claim.
func (s *Server) launchResume(j *Job, plan *resumePlan, wait time.Duration) (int, error) {
	if plan.budgetDone {
		s.jobs.end(j, StateStopped, "max_cliques", "",
			&hbbmc.Stats{Cliques: plan.base.Cliques, MaxCliqueSize: plan.base.MaxSize})
		return 0, nil
	}
	if err := s.admit(context.Background(), j, plan.workers, wait); err != nil {
		if reason := j.cancelReason.Load(); reason != nil {
			s.jobs.end(j, StateStopped, *reason, "", nil)
			return 0, nil
		}
		s.m.admissionRejected.Add(1)
		return http.StatusTooManyRequests,
			fmt.Errorf("resume %s: %d worker slots saturated (capacity %d)", j.ID, plan.workers, s.slots.Capacity())
	}
	j.mu.Lock()
	j.ckptBase = plan.base
	j.Query = plan.q
	j.Workers = plan.workers
	j.sessionCached = plan.cached
	j.prepTime = plan.sess.PrepTime()
	j.mu.Unlock()
	s.m.resumeBranchesSkipped.Add(int64(plan.cursor))
	s.launch(j, plan.timeout, func(ctx context.Context) { s.runJob(ctx, j, plan.sess) })
	return 0, nil
}

// startResume is the stream handler's resume entry: a client reclaiming a
// restored streaming job starts its re-run here, from the cursor of the
// last checkpoint marker it received (0 = from scratch).
func (s *Server) startResume(j *Job, cursor int) (int, error) {
	if s.draining.Load() {
		return http.StatusServiceUnavailable, errors.New("server is shutting down")
	}
	rs := s.claimResume(j)
	if rs == nil {
		// Lost the claim to a racing shutdown sweep or cancellation; the
		// stream loop handles whatever state the job ended up in.
		return 0, nil
	}
	plan, permanent, status, err := s.planResume(j, rs, cursor)
	if err != nil {
		if permanent {
			s.failResume(j, err)
		} else {
			s.unclaimResume(j, rs)
		}
		return status, err
	}
	status, err = s.launchResume(j, plan, s.cfg.QueueWait)
	if err != nil {
		s.unclaimResume(j, rs)
	}
	return status, err
}

// resumeScalar autonomously re-runs one restored scalar job: count resumes
// from its durable branch watermark, max_clique and kclique_count re-run
// from scratch (idempotent). It blocks on slot admission — a recovering
// daemon finishes its inherited work rather than 429-ing it.
func (s *Server) resumeScalar(j *Job) {
	rs := s.claimResume(j)
	if rs == nil {
		return
	}
	cursor := 0
	if j.Mode == "count" && rs.watermark > 0 {
		cursor = rs.watermark
	}
	plan, _, _, err := s.planResume(j, rs, cursor)
	if err != nil {
		s.failResume(j, err)
		return
	}
	if _, err := s.launchResume(j, plan, -1); err != nil {
		s.failResume(j, err)
	}
}

// failResume marks a restored job as permanently unresumable. The caller
// holds the resume claim (or the job never carried one).
func (s *Server) failResume(j *Job, err error) {
	s.jobs.end(j, StateFailed, "", err.Error(), nil)
}

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/distrib"
	"github.com/graphmining/hbbmc/internal/obs"
)

// This file is the coordinator half of mced's distributed mode. A node
// started with peers (Config.Peers) does not execute plain jobs locally:
// it splits the session's top-level branch space into descriptors
// (distrib.Plan — the same guided ramp-up chunks the in-process work queue
// hands to local workers), dispatches each descriptor to a peer as a
// POST /v1/jobs with branch_range, and merges the peers' NDJSON clique
// streams into the one stream the client reads. Failed or straggling
// shards are re-dispatched (with jittered backoff, to a rotated peer) or
// re-split into halves; a fingerprint mismatch (HTTP 409) fails the job —
// no retry can make an incompatible node compatible.

// shardHTTPClient is shared by every coordinator run so connections to
// peers pool across jobs; per-attempt contexts bound each request.
var shardHTTPClient = &http.Client{}

// shardVerdict classifies one dispatch attempt.
type shardVerdict int

const (
	shardOK    shardVerdict = iota
	shardRetry              // transient: re-dispatch after backoff
	shardSplit              // straggler: the shard deadline expired, halve it
	shardFatal              // incompatible or invalid: fail the whole job
)

// shardResult is one successful shard: its buffered cliques (empty in count
// mode), the counters from its stream trailer or terminal status, and the
// worker's span timeline to merge under the coordinator's trace.
type shardResult struct {
	cliques [][]int32
	stats   *hbbmc.Stats
	peer    string
	trace   *obs.TraceView
}

// coordinator is the per-job fan-out state.
type coordinator struct {
	s    *Server
	j    *Job
	req  jobRequest // the client's request; algorithm fields ride into every shard
	tmpl distrib.Descriptor
	rc   *retryClient
	// traceparent is the propagation header value every shard dispatch
	// carries, computed once from the job's trace ID — the workers adopt it,
	// so their spans come back under this job's trace.
	traceparent string

	peers []string     // verified peer base URLs
	next  atomic.Int64 // round-robin peer cursor

	cancel context.CancelFunc // stops the whole fan-out

	dispatched, retried, failed atomic.Int64

	// failOnce latches the first hard failure and cancels the run; firstErr
	// is written inside it and read only after the fan-out joins.
	failOnce sync.Once
	firstErr error

	limitHit atomic.Bool // the global MaxCliques budget was reached

	deliverMu sync.Mutex
	//hbbmc:guardedby deliverMu
	delivered int64
	//hbbmc:guardedby deliverMu
	shardStats []*hbbmc.Stats
}

// startCoordinatedJob admits a coordinator job. It skips worker-slot
// admission entirely: the enumeration runs on the peers, and holding local
// slots for the merge loop would let coordinator jobs starve the node's own
// shard work.
func (s *Server) startCoordinatedJob(w http.ResponseWriter, req *jobRequest, sess *hbbmc.Session, cached bool, timeout time.Duration, buffer int, tr *obs.Trace) {
	q := hbbmc.QueryOptions{MaxCliques: req.MaxCliques}
	j := s.jobs.create(req.Dataset, req.Mode, 0, sess.Options(), q, 0, buffer, tr)
	j.mu.Lock()
	j.sessionCached = cached
	j.prepTime = sess.PrepTime()
	j.sharded = true
	j.mu.Unlock()

	runCtx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		runCtx, cancel = context.WithTimeout(runCtx, timeout)
	} else {
		runCtx, cancel = context.WithCancel(runCtx)
	}
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	// A DELETE that landed before j.cancel existed was recorded but not
	// acted on; honour it now that the context exists.
	if j.cancelReason.Load() != nil {
		cancel()
	}
	s.jobs.markRunning(j)
	go s.runCoordinator(runCtx, cancel, j, sess, *req)
	writeJSON(w, http.StatusAccepted, j.View())
}

// runCoordinator drives one coordinated job to a terminal state, mirroring
// runJob's outcome handling (minus the slot release — coordinator jobs hold
// none).
func (s *Server) runCoordinator(ctx context.Context, cancel context.CancelFunc, j *Job, sess *hbbmc.Session, req jobRequest) {
	defer cancel()
	co := &coordinator{
		s:           s,
		j:           j,
		req:         req,
		tmpl:        distrib.ForSession(req.Dataset, sess),
		rc:          newRetryClient(shardHTTPClient, 3, 25*time.Millisecond, 500*time.Millisecond),
		traceparent: obs.FormatTraceparent(j.trace.ID()),
	}
	co.rc.onRetry = func() {
		s.m.shardsRetried.Add(1)
		co.retried.Add(1)
	}
	stats, runErr := co.run(ctx)
	if runErr != nil && stats == nil {
		s.jobs.markFailed(j, runErr.Error())
	} else {
		if j.cliques == nil && stats != nil {
			s.m.cliquesEmitted.Add(stats.Cliques)
		}
		s.jobs.finish(j, stats, runErr, ctx)
	}
	j.cliques.close()
}

// run verifies the peers, plans the shards and joins the fan-out.
func (co *coordinator) run(ctx context.Context) (*hbbmc.Stats, error) {
	start := time.Now()
	peers, err := co.verifyPeers(ctx)
	if err != nil {
		return nil, err
	}
	co.peers = peers
	plan := distrib.Plan(co.tmpl, len(peers), co.s.cfg.ShardMaxBranches)

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	co.cancel = cancelRun

	// Bounded in-flight: every shard goroutine holds a semaphore slot while
	// dispatched (retries included). A split releases its slot before
	// launching the halves, so re-splitting can never deadlock the pool.
	sem := make(chan struct{}, co.s.cfg.ShardInflight)
	var wg sync.WaitGroup
	var launch func(d distrib.Descriptor)
	launch = func(d distrib.Descriptor) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-runCtx.Done():
				// Nothing recorded this cancellation yet if it came from
				// outside (client DELETE, job deadline); latch it so the
				// outcome is not silently "done".
				co.fail(runCtx.Err())
				return
			}
			co.runShard(runCtx, d, launch, func() { <-sem })
		}()
	}
	for _, d := range plan {
		launch(d)
	}
	wg.Wait()

	stats := co.mergedStats(time.Since(start))
	switch {
	case co.limitHit.Load():
		return stats, hbbmc.ErrStopped
	case co.firstErr != nil:
		return stats, co.firstErr
	}
	return stats, nil
}

// fail latches the first hard failure and stops the fan-out.
func (co *coordinator) fail(err error) {
	if err == nil {
		return
	}
	co.failOnce.Do(func() {
		co.firstErr = err
		co.cancel()
	})
}

// peerFor maps a shard's dispatch attempt to a peer: the shard's base slot
// (drawn from the global round-robin cursor, spreading initial load) plus
// the attempt index. The attempt offset is the failover guarantee — a
// shard's consecutive attempts visit distinct peers, so one dead node can
// never eat a whole retry budget while a healthy one sits idle. Peers whose
// circuit breaker is open are skipped; if every breaker refuses, the
// natural slot is used anyway (dispatching into an open breaker beats
// stalling the shard — its failure feeds the breaker's cooldown clock).
func (co *coordinator) peerFor(base, attempt int) string {
	n := len(co.peers)
	if bs := co.s.breakers; bs != nil {
		for off := 0; off < n; off++ {
			peer := co.peers[(base+attempt+off)%n]
			if bs.allow(peer) {
				return peer
			}
			// A zero-duration marker in the timeline: this peer was skipped
			// because its breaker was open when the shard looked for a home.
			co.j.trace.Add(obs.Span{Name: "breaker_skip", Peer: peer, Start: time.Now().UnixNano()})
		}
	}
	return co.peers[(base+attempt)%n]
}

// reportShard feeds one dispatch outcome into the peer's circuit breaker.
// Only clean successes and transient failures count: a fatal verdict
// condemns the job (not the peer) and a split blames the shard's size.
func (co *coordinator) reportShard(peer string, verdict shardVerdict) {
	bs := co.s.breakers
	if bs == nil {
		return
	}
	switch verdict {
	case shardOK:
		bs.success(peer)
	case shardRetry:
		bs.failure(peer)
	}
}

// runShard resolves one descriptor: dispatch, retry with jittered backoff,
// re-split on straggle, or latch a job-level failure. The semaphore slot is
// held for the attempt loop and released exactly once.
func (co *coordinator) runShard(ctx context.Context, d distrib.Descriptor, launch func(distrib.Descriptor), release func()) {
	released := false
	defer func() {
		if !released {
			release()
		}
	}()
	co.s.m.shardsDispatched.Add(1)
	co.dispatched.Add(1)
	attempts := co.s.cfg.ShardRetries + 1
	base := int(co.next.Add(1) - 1)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if ctx.Err() != nil {
			co.fail(ctx.Err())
			return
		}
		if attempt > 0 {
			co.s.m.shardsRetried.Add(1)
			co.retried.Add(1)
			if err := sleepContext(ctx, jitterBackoff(co.rc.baseDelay, co.rc.maxDelay, attempt)); err != nil {
				co.fail(err)
				return
			}
		}
		peer := co.peerFor(base, attempt)
		attemptStart := time.Now()
		res, verdict, err := co.tryShard(ctx, d, peer)
		co.reportShard(peer, verdict)
		switch verdict {
		case shardOK:
			co.j.trace.Add(obs.Span{
				Name: "shard_dispatch", Peer: peer, Lo: d.Lo, Hi: d.Hi,
				Start: attemptStart.UnixNano(), Dur: int64(time.Since(attemptStart)),
			})
			co.deliver(ctx, res)
			return
		case shardFatal:
			co.s.m.shardsFailed.Add(1)
			co.failed.Add(1)
			co.fail(err)
			return
		case shardRetry:
			co.j.trace.Add(obs.Span{
				Name: "shard_retry", Peer: peer, Lo: d.Lo, Hi: d.Hi,
				Start: attemptStart.UnixNano(), Dur: int64(time.Since(attemptStart)),
			})
		case shardSplit:
			co.j.trace.Add(obs.Span{
				Name: "shard_halve", Peer: peer, Lo: d.Lo, Hi: d.Hi,
				Start: attemptStart.UnixNano(), Dur: int64(time.Since(attemptStart)),
			})
			if a, b, ok := d.Halve(); ok {
				// Straggler: halving follows the guided-chunking shape back
				// down — each half is a fresh descriptor with a fresh retry
				// budget, and the slow peer's still-running job has been
				// cancelled (its cliques were never forwarded, so the
				// halves cannot duplicate them).
				co.s.m.shardsRetried.Add(1)
				co.retried.Add(1)
				released = true
				release()
				launch(a)
				launch(b)
				return
			}
			// A singleton interval cannot split; re-dispatch it instead.
		}
		lastErr = err
	}
	co.s.m.shardsFailed.Add(1)
	co.failed.Add(1)
	co.fail(fmt.Errorf("coordinator: shard [%d,%d): %d dispatch attempts exhausted: %w", d.Lo, d.Hi, attempts, lastErr))
}

// deliver forwards one successful shard into the client stream and the
// stats merge. Buffer-then-forward is the duplicate barrier: a shard's
// cliques enter the merged stream only after its trailer confirmed success,
// so a re-dispatched straggler contributes exactly once no matter how many
// attempts ran. The single deliverMu writer also makes the global
// MaxCliques cut exact.
func (co *coordinator) deliver(ctx context.Context, res *shardResult) {
	limit := co.req.MaxCliques
	co.deliverMu.Lock()
	defer co.deliverMu.Unlock()
	if res.stats != nil {
		co.shardStats = append(co.shardStats, res.stats)
	}
	if res.trace != nil {
		// Merge the worker's spans under this job's trace, each tagged with
		// the peer it ran on (worker-local spans carry no peer themselves).
		for _, sv := range res.trace.Spans {
			sp := sv.Span()
			if sp.Peer == "" {
				sp.Peer = res.peer
			}
			co.j.trace.Add(sp)
		}
	}
	if co.j.cliques != nil {
		for _, c := range res.cliques {
			if limit > 0 && co.delivered >= limit {
				break
			}
			if !co.j.cliques.put(c, ctx.Done()) {
				return
			}
			co.delivered++
		}
	} else if res.stats != nil {
		co.delivered += res.stats.Cliques
		if limit > 0 && co.delivered > limit {
			co.delivered = limit
		}
	}
	if limit > 0 && co.delivered >= limit {
		co.limitHit.Store(true)
		co.cancel()
	}
}

// mergedStats folds the successful shards' counters into the coordinator
// job's Stats: mergeable counters sum (hbbmc.MergeStats), the preprocessing
// descriptors (δ, τ, h-index, reduction) are identical on every shard and
// seed from the first, and the coordinator-only shard counters land in the
// //hbbmc:nomerge fields.
func (co *coordinator) mergedStats(elapsed time.Duration) *hbbmc.Stats {
	co.deliverMu.Lock()
	defer co.deliverMu.Unlock()
	total := &hbbmc.Stats{}
	for i, st := range co.shardStats {
		if i == 0 {
			total.Delta, total.Tau, total.HIndex = st.Delta, st.Tau, st.HIndex
			total.ReducedVertices, total.ReductionCliques = st.ReducedVertices, st.ReductionCliques
		}
		hbbmc.MergeStats(total, st)
	}
	// Cliques reflects what actually reached (or, in count mode, what was
	// accounted toward) the client, not the shard sum — the two differ when
	// the MaxCliques cut or a cancellation landed mid-merge.
	total.Cliques = co.delivered
	total.Workers = len(co.peers)
	total.EnumTime = elapsed
	total.ShardsDispatched = co.dispatched.Load()
	total.ShardsRetried = co.retried.Load()
	total.ShardsFailed = co.failed.Load()
	return total
}

// verifyPeers probes every configured peer's /v1/info: it must answer, have
// the dataset registered and — when the peer has already loaded the graph —
// agree on the dataset fingerprint. Peers failing the probe are excluded
// (the job proceeds on the rest); no usable peer fails the job. A peer that
// has not loaded the graph yet passes the probe: the POST-side 409 check
// still guards compatibility at dispatch.
func (co *coordinator) verifyPeers(ctx context.Context) ([]string, error) {
	var usable []string
	var reasons []string
	for _, raw := range co.s.cfg.Peers {
		base := strings.TrimRight(raw, "/")
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		info, err := co.fetchInfo(pctx, base)
		cancel()
		if err != nil {
			if co.s.breakers != nil {
				co.s.breakers.failure(base)
			}
			reasons = append(reasons, fmt.Sprintf("%s: %v", base, err))
			continue
		}
		if co.s.breakers != nil {
			co.s.breakers.success(base)
		}
		var ds *DatasetInfo
		for i := range info.Datasets {
			if info.Datasets[i].Name == co.tmpl.Dataset {
				ds = &info.Datasets[i]
				break
			}
		}
		switch {
		case ds == nil:
			reasons = append(reasons, fmt.Sprintf("%s: dataset %q not registered", base, co.tmpl.Dataset))
		case ds.Fingerprint != "" && ds.Fingerprint != co.tmpl.GraphCRC:
			reasons = append(reasons, fmt.Sprintf("%s: dataset fingerprint %s, want %s", base, ds.Fingerprint, co.tmpl.GraphCRC))
		default:
			usable = append(usable, base)
		}
	}
	if len(usable) == 0 {
		return nil, fmt.Errorf("coordinator: no usable peer for dataset %q: %s", co.tmpl.Dataset, strings.Join(reasons, "; "))
	}
	return usable, nil
}

func (co *coordinator) fetchInfo(ctx context.Context, base string) (*nodeInfo, error) {
	resp, err := co.rc.Do(ctx, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, base+"/v1/info", nil)
	})
	if err != nil {
		return nil, err
	}
	var info nodeInfo
	err = json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&info)
	drainClose(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("decoding /v1/info: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/info: status %d", resp.StatusCode)
	}
	return &info, nil
}

// shardRequest is the POST body dispatching descriptor d: the client's
// request with the shard identity spliced in.
func (co *coordinator) shardRequest(d distrib.Descriptor) *jobRequest {
	sr := co.req
	sr.Mode = co.j.Mode
	sr.BranchRange = &[2]int{d.Lo, d.Hi}
	sr.GraphCRC = d.GraphCRC
	sr.Ordering = d.Ordering
	// The remote job's own deadline mirrors the coordinator's attempt
	// bound, so an orphaned shard (coordinator gone before its DELETE)
	// cancels itself instead of burning the worker forever.
	sr.Timeout = co.s.cfg.ShardTimeout.String()
	sr.Buffer = 0
	return &sr
}

// remoteCancel best-effort DELETEs a shard's remote job. It runs on a fresh
// short context: the shard's own context is typically already dead when a
// cleanup is needed.
func (co *coordinator) remoteCancel(peer, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, peer+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := shardHTTPClient.Do(req); err == nil {
		drainClose(resp.Body)
	}
}

// classifyDispatchErr maps a transport-level failure: the shard deadline
// expiring is the straggler signal (split), everything else — including the
// coordinator's own context ending, which the retry loop notices first — is
// transient.
func classifyDispatchErr(ctx, shCtx context.Context) shardVerdict {
	if ctx.Err() == nil && shCtx.Err() != nil {
		return shardSplit
	}
	return shardRetry
}

// shardLine decodes one NDJSON record of a shard stream: a clique line
// ({"c":[...]}), a checkpoint marker ({"ckpt":W}) or the trailer
// ({"done":true,...}).
type shardLine struct {
	C          []int32        `json:"c"`
	Ckpt       int            `json:"ckpt,omitempty"`
	Done       bool           `json:"done"`
	State      JobState       `json:"state"`
	StopReason string         `json:"stop_reason"`
	Error      string         `json:"error"`
	Stats      *hbbmc.Stats   `json:"stats"`
	Trace      *obs.TraceView `json:"trace"`
}

// tryShard runs one dispatch attempt of d against peer: POST the shard job,
// consume its result (NDJSON stream for enumerate, terminal status for
// count) and classify the outcome. Whatever goes wrong after the remote job
// exists, it is best-effort cancelled so no orphan keeps burning the peer.
func (co *coordinator) tryShard(ctx context.Context, d distrib.Descriptor, peer string) (*shardResult, shardVerdict, error) {
	shCtx, cancel := context.WithTimeout(ctx, co.s.cfg.ShardTimeout)
	defer cancel()

	body, err := json.Marshal(co.shardRequest(d))
	if err != nil {
		return nil, shardFatal, err
	}
	rttStart := time.Now()
	resp, err := co.rc.Do(shCtx, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, peer+"/v1/jobs", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			if co.traceparent != "" {
				req.Header.Set(obs.TraceparentHeader, co.traceparent)
			}
		}
		return req, err
	})
	co.s.obs.shardRTT.ObserveDuration(time.Since(rttStart))
	if err != nil {
		return nil, classifyDispatchErr(ctx, shCtx), fmt.Errorf("peer %s: dispatching shard [%d,%d): %w", peer, d.Lo, d.Hi, err)
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	drainClose(resp.Body)
	switch {
	case resp.StatusCode == http.StatusConflict:
		var eb errorBody
		_ = json.Unmarshal(raw, &eb)
		return nil, shardFatal, fmt.Errorf("peer %s rejected shard [%d,%d): %s", peer, d.Lo, d.Hi, eb.Error)
	case resp.StatusCode != http.StatusAccepted:
		return nil, shardRetry, fmt.Errorf("peer %s: POST /v1/jobs: status %d", peer, resp.StatusCode)
	}
	var view JobView
	if err := json.Unmarshal(raw, &view); err != nil || view.ID == "" {
		return nil, shardRetry, fmt.Errorf("peer %s: undecodable job response", peer)
	}

	// From here a remote job exists; anything but a clean success cancels it.
	finished := false
	defer func() {
		if !finished {
			co.remoteCancel(peer, view.ID)
		}
	}()

	var res *shardResult
	var verdict shardVerdict
	if co.j.Mode == "count" {
		res, verdict, err = co.awaitCount(ctx, shCtx, peer, view.ID)
	} else {
		res, verdict, err = co.consumeStream(ctx, shCtx, peer, view.ID)
	}
	finished = verdict == shardOK
	return res, verdict, err
}

// consumeStream reads a shard's NDJSON clique stream to its trailer,
// buffering every clique. Only a trailer reporting a complete run (done, or
// stopped by its own max_cliques budget) counts as success; a truncated or
// corrupt stream is a transient failure and the buffer is discarded.
func (co *coordinator) consumeStream(ctx, shCtx context.Context, peer, id string) (*shardResult, shardVerdict, error) {
	req, err := http.NewRequestWithContext(shCtx, http.MethodGet, peer+"/v1/jobs/"+id+"/cliques", nil)
	if err != nil {
		return nil, shardFatal, err
	}
	resp, err := shardHTTPClient.Do(req)
	if err != nil {
		return nil, classifyDispatchErr(ctx, shCtx), fmt.Errorf("peer %s job %s: opening stream: %w", peer, id, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, shardRetry, fmt.Errorf("peer %s job %s: stream status %d", peer, id, resp.StatusCode)
	}
	res := &shardResult{peer: peer}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec shardLine
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, shardRetry, fmt.Errorf("peer %s job %s: corrupt stream record: %v", peer, id, err)
		}
		switch {
		case rec.Done:
			if rec.State == StateDone || (rec.State == StateStopped && rec.StopReason == "max_cliques") {
				res.stats = rec.Stats
				res.trace = rec.Trace
				return res, shardOK, nil
			}
			return nil, shardRetry, fmt.Errorf("peer %s job %s ended %s (%s%s)", peer, id, rec.State, rec.StopReason, rec.Error)
		case rec.C != nil:
			res.cliques = append(res.cliques, rec.C)
		case rec.Ckpt > 0:
			// A journaled worker's checkpoint marker. The coordinator's own
			// buffer-then-forward barrier already guarantees exactly-once,
			// so markers are simply skipped.
		default:
			return nil, shardRetry, fmt.Errorf("peer %s job %s: stream record is neither clique nor trailer", peer, id)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, classifyDispatchErr(ctx, shCtx), fmt.Errorf("peer %s job %s: stream broke: %w", peer, id, err)
	}
	return nil, classifyDispatchErr(ctx, shCtx), fmt.Errorf("peer %s job %s: stream ended without trailer", peer, id)
}

// fetchTrace best-effort fetches a terminal shard job's span timeline from
// its worker node (count shards have no stream trailer to carry it). A
// failure returns nil — the coordinator's timeline just lacks that shard's
// worker-side spans.
func (co *coordinator) fetchTrace(ctx context.Context, peer, id string) *obs.TraceView {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil
	}
	resp, err := shardHTTPClient.Do(req)
	if err != nil {
		return nil
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var tv obs.TraceView
	if json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&tv) != nil {
		return nil
	}
	return &tv
}

// awaitCount long-polls a count shard's status until it is terminal.
func (co *coordinator) awaitCount(ctx, shCtx context.Context, peer, id string) (*shardResult, shardVerdict, error) {
	for {
		resp, err := co.rc.Do(shCtx, func() (*http.Request, error) {
			return http.NewRequest(http.MethodGet, peer+"/v1/jobs/"+id+"?wait=1s", nil)
		})
		if err != nil {
			return nil, classifyDispatchErr(ctx, shCtx), fmt.Errorf("peer %s job %s: polling: %w", peer, id, err)
		}
		var view JobView
		err = json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&view)
		drainClose(resp.Body)
		if err != nil {
			return nil, shardRetry, fmt.Errorf("peer %s job %s: undecodable status", peer, id)
		}
		switch view.State {
		case StateDone:
			return &shardResult{stats: view.Stats, peer: peer, trace: co.fetchTrace(shCtx, peer, id)}, shardOK, nil
		case StateStopped:
			if view.StopReason == "max_cliques" {
				return &shardResult{stats: view.Stats, peer: peer, trace: co.fetchTrace(shCtx, peer, id)}, shardOK, nil
			}
			return nil, shardRetry, fmt.Errorf("peer %s job %s stopped: %s", peer, id, view.StopReason)
		case StateFailed:
			return nil, shardRetry, fmt.Errorf("peer %s job %s failed: %s", peer, id, view.Error)
		}
	}
}

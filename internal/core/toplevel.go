package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/reduce"
)

// This file is the one top-level driver every query type runs through. The
// paper's top level is a loop over an ordering — a vertex per branch
// (Eq. 1) or an edge per branch (Algorithms 3 and 4) — whose branches are
// independent, so the driver claims branch positions from one work queue
// and runs a per-branch kernel on each: on the caller's goroutine when the
// query has one worker, on N goroutines otherwise (the shared-memory
// parallel MCE of Das et al., PAPERS.md). What differs between enumerate,
// count, top_k, max_clique and kclique_count is the data of a branchPlan.

// branchPlan is one query's top-level work.
type branchPlan struct {
	// g and red are the graph and reduction the engines run on.
	g   *graph.Graph
	red *reduce.Result
	// n is the size of the branch space; branch runs the branch at raw
	// ordering position p in [0, n) on e.
	n      int
	branch func(e *engine, p int)
	// chunk, when set, runs a whole claimed chunk [begin, end) on e in place
	// of one branch call per position; sched maps its positions to raw ones
	// when the run iterates the schedule. The edge branches of enumerate,
	// count and top_k run this way, so the engine can share rows between
	// the branches of a chunk (anchor.go).
	chunk func(e *engine, sched []int32, begin, end int)
	// schedule returns the cost-ordered branch schedule (schedule position →
	// raw position), nil when the basis has none. The driver builds it only
	// when it iterates schedule positions.
	schedule func() []int32
	// whole marks the single whole-graph branch of BK and BKPivot, which
	// always runs on one worker.
	whole bool
	// residue, when set, emits the preprocessing residue ahead of every
	// branch. Only the run whose interval contains position 0 emits it, so
	// shards that partition the branch space partition the clique set too.
	residue func(e *engine)

	rng branchRange
	// hook is the query's BranchDone observer, nil when it has none.
	hook  func(lo, hi int, cliques int64, maxCliqueSize int)
	visit Visitor
}

// sessionPlan builds a plan over the session's own top-level branch space,
// running the kernel of the algorithm's branch shape: edge or vertex for
// the ordered frameworks, whole for BK and BKPivot.
func (s *Session) sessionPlan(edge, vertex func(e *engine, p int), whole func(e *engine)) *branchPlan {
	p := &branchPlan{g: s.res, red: s.red, n: s.NumTopBranches(), schedule: s.branchSchedule}
	switch s.opts.Algorithm {
	case BK, BKPivot:
		p.whole, p.schedule = true, nil
		p.branch = func(e *engine, _ int) { whole(e) }
	case EBBMC, HBBMC:
		p.branch = edge
	default:
		p.branch = vertex
	}
	return p
}

// workers resolves how many workers run the plan and, when a multi-worker
// request runs on one, why.
func (p *branchPlan) workers(opts Options) (int, string) {
	requested := opts.Workers
	w := resolveWorkers(requested)
	switch {
	case w > 1 && p.whole:
		return 1, fmt.Sprintf("%v runs as a single whole-graph branch", opts.Algorithm)
	case w == 1 && (requested > 1 || requested == UseAllCores):
		return 1, "single worker"
	}
	return w, ""
}

// driver is the run state one drive call shares with its workers.
type driver struct {
	plan  *branchPlan
	rc    *runControl
	queue *workQueue
	sched []int32     // nil: positions are raw ordering positions
	oseq  *orderedSeq // ordered release on a hooked multi-worker run
}

// worker is one goroutine's engine plus its multi-worker delivery state:
// the chunk it is running on an ordered run, or its emit batcher on a
// batched one.
type worker struct {
	e       *engine
	cur     *orderedChunk
	batcher *emitBatcher
}

// buffer is a worker's emit target on an ordered run with a visitor: it
// copies the clique into the running chunk (the engine reuses the slice).
// It always reports true: a visitor stop propagates through the run's stop
// latch when the sequencer later delivers the chunk.
func (w *worker) buffer(c []int32) bool {
	w.cur.lens = append(w.cur.lens, int32(len(c)))
	w.cur.data = append(w.cur.data, c...)
	return true
}

// drive runs plan and returns the query's Stats.
//
// Branch order: a run whose branches several workers share iterates the
// cost-ordered schedule, expensive branches first; so does a run whose
// positions must name schedule slots (a branch range, a BranchDone hook).
// A lone worker otherwise iterates the raw ordering, which is cheaper, as
// one chunk. A plan with a chunk kernel may reorder the branches inside a
// chunk, never across chunks.
//
// Delivery follows from the worker count, the visitor and the hook. One
// worker delivers straight to the visitor and reports each branch to the
// hook. Several workers with a hook release their chunks through the
// ordered sequencer, which reports them to the hook in schedule order and,
// with a visitor, delivers their cliques first. Several workers with a
// visitor and no hook flush per-worker batches of emitBatchSize cliques.
//
// The preprocessing residue is emitted first, on the first worker's engine
// while it still delivers straight to the visitor, followed by the [0,0)
// hook call.
func (s *Session) drive(rc *runControl, opts Options, plan *branchPlan) *Stats {
	workers, fallback := plan.workers(opts)
	stats := s.baseStats(workers)
	stats.ParallelFallback = fallback
	enum := time.Now()
	lo, hi := 0, plan.n
	if plan.rng.set {
		lo, hi = plan.rng.lo, plan.rng.hi
	}
	d := &driver{plan: plan, rc: rc}
	if plan.schedule != nil && (workers > 1 || plan.rng.set || plan.hook != nil) {
		d.sched = plan.schedule()
	}
	// Several workers claim guided chunks: ramping up from single branches
	// at the head of the cost-ordered schedule, or decaying toward the tail
	// of a basis without one. A lone worker claims its whole range at once,
	// or one branch at a time when the hook must see every branch: a claim
	// per branch added ~25 ns to each ~40 ns triangle-free edge branch
	// (2^20-cycle, 2-vCPU Xeon).
	fixed := 0
	if workers == 1 {
		fixed = hi - lo
		if plan.hook != nil {
			fixed = 1
		}
	}
	d.queue = newWorkQueue(lo, hi, workers, fixed)
	d.queue.rampUp = workers > 1 && d.sched != nil

	newWorker := func(st *Stats) *worker {
		e := newEngine(plan.g, plan.red, opts, st, plan.visit, rc)
		configureEngine(e, opts)
		e.eo, e.inc = s.eo, s.inc
		return &worker{e: e}
	}
	// The first worker counts straight into the query's Stats; any others
	// count into their own, merged after the join.
	first := newWorker(stats)
	if lo == 0 {
		if plan.residue != nil {
			plan.residue(first.e)
		}
		if plan.hook != nil && !rc.halted() {
			plan.hook(0, 0, stats.Cliques, stats.MaxCliqueSize)
		}
	}
	if workers == 1 {
		d.work(first)
		stats.EnumTime = time.Since(enum)
		return stats
	}

	var sink *emitSink
	switch {
	case plan.hook != nil:
		d.oseq = newOrderedSeq(plan.visit, rc, plan.hook, lo)
	case plan.visit != nil:
		sink = &emitSink{visit: plan.visit, rc: rc}
	}
	ws := []*worker{first}
	for len(ws) < workers {
		ws = append(ws, newWorker(&Stats{}))
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		switch {
		case d.oseq != nil && plan.visit != nil:
			w.e.emitFn = w.buffer
		case sink != nil:
			w.batcher = newEmitBatcher(sink, emitBatchSize)
			w.e.emitFn = w.batcher.add
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.work(w)
		}()
	}
	wg.Wait()
	for _, w := range ws[1:] {
		stats.merge(w.e.stats)
	}
	// Workers count a clique when they find it; the ones a stop kept from
	// being delivered come off again, so Cliques means "reported". A count
	// reports what it found.
	switch {
	case d.oseq != nil:
		stats.Cliques -= d.oseq.abandon()
		stats.EmitBatches = d.oseq.released.Load()
	case sink != nil:
		stats.Cliques -= sink.droppedCount()
		stats.EmitBatches = sink.batches.Load()
	}
	stats.EnumTime = time.Since(enum)
	return stats
}

// work is one worker's loop: claim a chunk of branch positions, run it,
// then hand it to the ordered sequencer or, on a lone worker, report it to
// the hook.
//
//hbbmc:ctxpoll
func (d *driver) work(w *worker) {
	for !d.rc.halted() {
		begin, end, ok := d.queue.next()
		if !ok {
			break
		}
		before := w.e.stats.Cliques
		if d.oseq != nil {
			w.cur = &orderedChunk{begin: begin, end: end}
		}
		d.runChunk(w.e, begin, end)
		cliques, maxSize := w.e.stats.Cliques-before, w.e.stats.MaxCliqueSize
		switch {
		case d.oseq != nil:
			// The worker's running maximum covers only its own chunks, all
			// at or below this one, so it claims no clique past the chunk.
			w.cur.cliques, w.cur.max = cliques, maxSize
			d.oseq.complete(w.cur)
		case d.plan.hook != nil && !d.rc.stopped():
			// The chunk's cliques reached the visitor already, or there is
			// none, so its counts are final. A stop may have cut the chunk
			// short, so a stopped run claims nothing.
			d.plan.hook(begin, end, cliques, maxSize)
		}
	}
	if w.batcher != nil {
		w.batcher.flush()
	}
}

// runChunk runs the branches at positions [begin, end), mapped through the
// schedule when the run iterates one. Cancellation and early stops are
// observed once per top-level branch.
//
//hbbmc:ctxpoll
func (d *driver) runChunk(e *engine, begin, end int) {
	rc, sched, branch := d.rc, d.sched, d.plan.branch
	if d.plan.chunk != nil {
		d.plan.chunk(e, sched, begin, end)
		return
	}
	for i := begin; i < end; i++ {
		if rc.halted() {
			return
		}
		p := i
		if sched != nil {
			p = int(sched[i])
		}
		branch(e, p)
	}
}

// emitReduced reports the cliques found by the reduction preprocessing,
// honouring the clique budget and the visitor's stop signal. The visitor
// sees a copy in emitBuf, never the session's cached slices — the
// streaming contract lets callers scribble on the slice until the call
// returns, and that must not corrupt the cache that later queries reuse.
//
//hbbmc:ctxpoll
func (e *engine) emitReduced(cliques [][]int32) {
	for _, c := range cliques {
		if e.rc.halted() || !e.rc.take() {
			return
		}
		e.stats.Cliques++
		if len(c) > e.stats.MaxCliqueSize {
			e.stats.MaxCliqueSize = len(c)
		}
		if e.emitFn != nil {
			e.emitBuf = append(e.emitBuf[:0], c...)
			if !e.emitFn(e.emitBuf) {
				e.rc.stop.Store(true)
				return
			}
		}
	}
}

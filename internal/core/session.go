package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"iter"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/order"
	"github.com/graphmining/hbbmc/internal/reduce"
	"github.com/graphmining/hbbmc/internal/truss"
)

// ErrStopped is returned (possibly wrapped) when an enumeration ended early
// because a Visitor returned false or Options.MaxCliques was reached. The
// accompanying Stats cover the work done up to the stop.
var ErrStopped = errors.New("core: enumeration stopped early")

// Visitor receives one maximal clique per call. The slice is reused between
// calls — copy it to retain it. Returning false stops the enumeration; the
// run then finishes with ErrStopped and no further Visitor calls are made.
type Visitor func(clique []int32) bool

// Session caches the preprocessing of one (graph, options) pair — the
// reduction result, the vertex or edge ordering and the triangle incidence —
// and serves any number of enumeration queries against it without repeating
// that O(δm) work. A Session is immutable after NewSession and safe for
// concurrent queries from multiple goroutines.
type Session struct {
	opts Options // normalized
	red  *reduce.Result
	res  *graph.Graph // residual graph after reduction
	src  *graph.Graph // the input graph, retained for GraphFingerprint

	// Ordering state; only the fields the configured algorithm needs are set.
	vertOrd, vertPos []int32
	eo               truss.EdgeOrder
	inc              *truss.Incidence

	// Branch schedule: top-level ordering positions sorted by descending
	// estimated cost, built lazily on the first query that iterates it and
	// shared by all of them (a Session is immutable otherwise).
	// scheduleBytes mirrors the schedule's size for MemoryEstimate, which
	// must not race the lazy build by touching the slice itself.
	scheduleOnce  sync.Once
	schedule      []int32
	scheduleBytes atomic.Int64

	// Lazy source-graph basis for CountKCliques when the session's cached
	// orderings cannot count k-cliques exactly (a reduction removed vertices,
	// or the algorithm has no top-level ordering): a degeneracy ordering of
	// src plus an identity reduction. kcBytes mirrors its size for
	// MemoryEstimate, like scheduleBytes does for the schedule.
	kcOnce       sync.Once
	kcOrd, kcPos []int32
	kcRed        *reduce.Result
	kcBytes      atomic.Int64

	// Lazily computed identity of the session's work decomposition, used by
	// the distributed coordinator (internal/distrib) to verify that a peer
	// would enumerate the exact same branch space before handing it a range.
	fpOnce  sync.Once
	fp      uint32
	ordOnce sync.Once
	ordFP   uint32

	delta, tau, hIndex int
	prepTime           time.Duration
}

// branchSchedule returns the order in which the driver hands top-level
// branches to the work queue when it iterates schedule positions: ordering
// positions sorted by descending estimated branch cost, so the expensive
// branches start first and cannot strand the run's tail on one worker (the
// LPT heuristic of the shared-memory parallel MCE literature). The estimate
// is the size of the branch's candidate universe — the triangle count of
// the edge for the edge-oriented frameworks, the later-neighbor count of
// the vertex for the ordered vertex frameworks. Returns nil (raw ordering
// positions) when cost ordering is ablated.
func (s *Session) branchSchedule() []int32 {
	if ablateCostOrder {
		return nil
	}
	s.scheduleOnce.Do(func() {
		var cost []int32
		switch s.opts.Algorithm {
		case EBBMC, HBBMC:
			cost = make([]int32, len(s.eo.Order))
			for i, eid := range s.eo.Order {
				cost[i] = s.inc.Count(eid)
			}
		default:
			cost = make([]int32, len(s.vertOrd))
			for i, v := range s.vertOrd {
				later := int32(0)
				pv := s.vertPos[v]
				for _, w := range s.res.Neighbors(v) {
					if s.vertPos[w] > pv {
						later++
					}
				}
				cost[i] = later
			}
		}
		perm := make([]int32, len(cost))
		for i := range perm {
			perm[i] = int32(i)
		}
		// One entry per edge on the edge-driven frameworks — use the
		// non-reflective generic sort.
		slices.SortFunc(perm, func(a, b int32) int {
			if ca, cb := cost[a], cost[b]; ca != cb {
				return int(cb - ca) // descending cost
			}
			return int(a - b) // deterministic tie-break
		})
		s.schedule = perm
		s.scheduleBytes.Store(int64(len(perm)) * 4)
	})
	return s.schedule
}

// NewSession validates opts and computes the preprocessing for g once:
// graph reduction (when Options.GR is set), the top-level vertex or edge
// ordering, and the triangle incidence of the edge-oriented frameworks.
// Every subsequent query reuses these artifacts, so their Stats report zero
// OrderingTime; PrepTime returns the cached cost.
func NewSession(g *graph.Graph, opts Options) (*Session, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	s := &Session{opts: opts, src: g}
	start := time.Now()
	if opts.GR {
		s.red = reduce.Apply(g, reduce.Options{MaxDegree: opts.GRMaxDegree})
	} else {
		s.red = reduce.Identity(g)
	}
	s.res = s.red.Residual
	switch opts.Algorithm {
	case BK, BKPivot:
		if s.res.NumVertices() > opts.MaxWholeGraphVertices {
			return nil, fmt.Errorf("core: %v runs on a single whole-graph branch and is limited to %d vertices (graph has %d after reduction); use an ordered algorithm such as BKDegen or HBBMC",
				opts.Algorithm, opts.MaxWholeGraphVertices, s.res.NumVertices())
		}
	case BKRef, BKDegen, BKRcd, BKFac:
		d := order.DegeneracyOrdering(s.res)
		s.delta = d.Value
		s.vertOrd, s.vertPos = d.Order, d.Pos
	case BKDegree:
		s.vertOrd, s.vertPos = order.DegreeOrdering(s.res)
		s.hIndex = order.HIndex(s.res)
	case EBBMC, HBBMC:
		switch opts.EdgeOrder {
		case EdgeOrderTruss:
			dec := truss.Decompose(s.res)
			s.tau = dec.Tau
			s.eo, s.inc = dec.EdgeOrder, dec.Inc
		case EdgeOrderDegeneracy:
			d := order.DegeneracyOrdering(s.res)
			s.delta = d.Value
			s.eo, s.inc = truss.DegeneracyEdgeOrder(s.res, d.Pos), truss.BuildIncidenceFrom(s.res, d.Pos)
		case EdgeOrderMinDegree:
			s.eo, s.inc = truss.MinDegreeEdgeOrder(s.res), truss.BuildIncidence(s.res)
		}
	}
	s.prepTime = time.Since(start)
	return s, nil
}

// Options returns the session's normalized options.
func (s *Session) Options() Options { return s.opts }

// NumTopBranches returns the size of the session's top-level branch space —
// the domain of QueryOptions branch ranges: one branch per edge-order
// position for the edge-oriented frameworks, one per ordering position for
// the ordered vertex frameworks, and a single whole-graph branch for BK and
// BKPivot. A distributed coordinator splits [0, NumTopBranches()) into the
// intervals it dispatches.
func (s *Session) NumTopBranches() int {
	switch s.opts.Algorithm {
	case BK, BKPivot:
		return 1
	case EBBMC, HBBMC:
		return len(s.eo.Order)
	default:
		return len(s.vertOrd)
	}
}

// fpCRCTable is the Castagnoli polynomial shared by every fingerprint in
// the module (the .hbg snapshot header uses the same one).
var fpCRCTable = crc32.MakeTable(crc32.Castagnoli)

// crcInt32s folds a []int32 into a running CRC-32C without materialising a
// byte serialisation of the whole slice.
func crcInt32s(crc uint32, xs []int32) uint32 {
	var buf [4096]byte
	fill := 0
	for _, x := range xs {
		if fill+4 > len(buf) {
			crc = crc32.Update(crc, fpCRCTable, buf[:fill])
			fill = 0
		}
		binary.LittleEndian.PutUint32(buf[fill:], uint32(x))
		fill += 4
	}
	return crc32.Update(crc, fpCRCTable, buf[:fill])
}

// GraphFingerprint returns the CRC-32C fingerprint of the session's input
// graph — the value SaveBinary writes into a .hbg header (see
// graph.Graph.Fingerprint) — computed once and cached. Together with
// Options.SessionKey it identifies the dataset side of a distributed work
// descriptor: two nodes agreeing on both hold byte-identical CSR graphs and
// build identical preprocessing from them.
func (s *Session) GraphFingerprint() uint32 {
	s.fpOnce.Do(func() { s.fp = s.src.Fingerprint() })
	return s.fp
}

// OrderingFingerprint identifies the session's branch enumeration basis: a
// CRC-32C over the algorithm name, the top-level ordering (edge order or
// vertex order) and the cost-ordered branch schedule. Branch ranges are
// intervals of schedule positions, so two nodes may only exchange them when
// their OrderingFingerprints agree — equality means position i names the
// same branch on both. The orderings are deterministic functions of the
// graph and options, so in practice this only disagrees when the dataset or
// options already do; it exists to turn that silent corruption into a hard
// dispatch error.
func (s *Session) OrderingFingerprint() uint32 {
	s.ordOnce.Do(func() {
		crc := crc32.Update(0, fpCRCTable, []byte(s.opts.Algorithm.String()))
		switch s.opts.Algorithm {
		case EBBMC, HBBMC:
			crc = crcInt32s(crc, s.eo.Order)
		default:
			crc = crcInt32s(crc, s.vertOrd)
		}
		crc = crcInt32s(crc, s.branchSchedule())
		s.ordFP = crc
	})
	return s.ordFP
}

// PrepTime returns the cost of the cached preprocessing (reduction plus
// ordering construction), paid once in NewSession.
func (s *Session) PrepTime() time.Duration { return s.prepTime }

// MemoryEstimate returns the number of bytes retained by the session's
// cached artifacts: the residual CSR graph, the reduction mapping and
// emitted cliques, the vertex or edge ordering, the triangle incidence of
// the edge-oriented frameworks and the lazily built parallel branch
// schedule. Cache budgets (the service registry's LRU) evict on this
// estimate; it tracks the dominant slice payloads and ignores struct
// overheads.
func (s *Session) MemoryEstimate() int64 {
	b := s.res.MemoryFootprint()
	b += s.red.MemoryFootprint()
	b += int64(len(s.vertOrd)+len(s.vertPos)) * 4
	b += int64(len(s.eo.Rank)+len(s.eo.Order)) * 4
	if s.inc != nil {
		b += s.inc.MemoryFootprint()
	}
	b += s.scheduleBytes.Load()
	b += s.kcBytes.Load()
	return b
}

// NoCliqueLimit is the QueryOptions.MaxCliques value that removes a clique
// budget configured in the session's Options for one query (a zero field
// inherits the session's budget instead).
const NoCliqueLimit int64 = -1

// QueryOptions override, for a single query, the per-run knobs of a
// Session's Options without rebuilding the cached preprocessing. The zero
// value inherits every session setting. The algorithm-defining fields
// (Algorithm, ET, GR, SwitchDepth, EdgeOrder, Inner) are fixed at
// NewSession and cannot be overridden per query — they determine the cached
// orderings.
type QueryOptions struct {
	// Workers overrides Options.Workers when non-zero (UseAllCores = one
	// worker per core; values above GOMAXPROCS are clamped).
	Workers int
	// MaxCliques overrides Options.MaxCliques when non-zero; NoCliqueLimit
	// removes a session-level budget for this query.
	MaxCliques int64
	// BranchDone, when non-nil, observes durable enumeration progress: it is
	// invoked once per completed unit of top-level work with the unit's
	// half-open schedule-position interval [lo, hi), the number of cliques
	// the unit delivered to the visitor (or found, without one), and a
	// running maximum clique size that is at least the unit's own maximum.
	// One degenerate call with lo == hi == 0 reports the preprocessing
	// residue (reduction cliques and, for the edge-oriented frameworks,
	// isolated vertices), which every run emits before any branch so that
	// "residue plus branches [0, W)" is a well-defined resumable prefix.
	// Units are single branches on a one-worker run and work-queue chunks on
	// a multi-worker one, reported in ascending schedule order at every
	// worker count, with or without a visitor. A hooked multi-worker run
	// with a visitor therefore delivers its cliques in that order too
	// (ordered release: residue first, then each chunk in turn), so
	// everything delivered before the hook reports unit [lo, hi) belongs to
	// residue + branches [0, hi); the price is that completed chunks wait in
	// memory behind a slow one. A unit whose completion or delivery is
	// uncertain (the run was stopped or cancelled mid-unit) is never
	// reported, so a checkpoint built from these calls only ever
	// under-claims. The hook is called from at most one goroutine at a time
	// but not always the caller's; it must not call back into the session.
	BranchDone func(lo, hi int, cliques int64, maxCliqueSize int)
	// BranchLo and BranchHi restrict the query to the half-open interval
	// [BranchLo, BranchHi) of top-level branch schedule positions — the
	// execution side of a distributed work descriptor (internal/distrib).
	// Both zero (the zero value) runs the full branch space. Positions index
	// the session's cost-ordered branch schedule, so a set of queries whose
	// intervals partition [0, NumTopBranches()) reports exactly the full
	// run's clique set across their streams; the preprocessing residue
	// (reduction cliques, isolated vertices of the edge-oriented split)
	// belongs to the interval containing position 0. BranchHi beyond
	// NumTopBranches() is an error: it means the range was computed against
	// different preprocessing than this session's.
	BranchLo, BranchHi int
}

// apply folds the overrides into the session's normalized options and
// re-validates the overridden fields.
func (q QueryOptions) apply(base Options) (Options, error) {
	o := base
	if q.Workers != 0 {
		if q.Workers < UseAllCores {
			return o, fmt.Errorf("core: invalid QueryOptions.Workers %d (use UseAllCores for all cores)", q.Workers)
		}
		o.Workers = q.Workers
	}
	switch {
	case q.MaxCliques == NoCliqueLimit:
		o.MaxCliques = 0
	case q.MaxCliques < NoCliqueLimit:
		return o, fmt.Errorf("core: invalid QueryOptions.MaxCliques %d", q.MaxCliques)
	case q.MaxCliques > 0:
		o.MaxCliques = q.MaxCliques
	}
	if q.BranchLo < 0 || q.BranchHi < q.BranchLo {
		return o, fmt.Errorf("core: invalid branch range [%d,%d)", q.BranchLo, q.BranchHi)
	}
	return o, nil
}

// branchRange is the resolved form of QueryOptions.BranchLo/BranchHi: a
// half-open interval of branch schedule positions, or the full branch space
// when set is false. The distinction matters beyond bounds: an unranged
// one-worker run iterates the raw ordering (the cheaper order), while any
// set range iterates schedule positions so that interval arithmetic on
// descriptors stays valid.
type branchRange struct {
	lo, hi int
	set    bool
}

// rng converts the query's range fields to a branchRange; [0,0) is the
// full-run sentinel.
func (q QueryOptions) rng() branchRange {
	if q.BranchLo == 0 && q.BranchHi == 0 {
		return branchRange{}
	}
	return branchRange{lo: q.BranchLo, hi: q.BranchHi, set: true}
}

// EnumerateWith is Enumerate with per-query overrides of the run knobs
// (worker count, clique budget). It is the query entry
// point for services that share one cached Session across requests with
// different per-request limits.
func (s *Session) EnumerateWith(ctx context.Context, q QueryOptions, visit Visitor) (*Stats, error) {
	opts, err := q.apply(s.opts)
	if err != nil {
		return nil, err
	}
	return s.enumerateRange(ctx, opts, q.rng(), q.BranchDone, visit)
}

// CountWith is Count with per-query overrides; see EnumerateWith.
func (s *Session) CountWith(ctx context.Context, q QueryOptions) (int64, *Stats, error) {
	stats, err := s.EnumerateWith(ctx, q, nil)
	if err != nil && stats == nil {
		return 0, nil, err
	}
	return stats.Cliques, stats, err
}

// Enumerate runs one query, invoking visit once per maximal clique (visit
// may be nil to only collect statistics). Options.Workers selects how many
// workers share the top-level branches: 0 or 1 runs on the caller's
// goroutine, n > 1 on up to n goroutines, UseAllCores on every core.
//
// ctx is checked cooperatively at top-branch granularity: after a
// cancellation or deadline the run returns within one top-level branch,
// with the partial Stats and an error wrapping ctx.Err(). A visit callback
// returning false, or Options.MaxCliques being reached, stops the run the
// same way with ErrStopped.
func (s *Session) Enumerate(ctx context.Context, visit Visitor) (*Stats, error) {
	return s.enumerate(ctx, s.opts, visit)
}

// EnumerateParallel is Enumerate with an explicit worker count overriding
// Options.Workers (0 = all cores, clamped to GOMAXPROCS).
func (s *Session) EnumerateParallel(ctx context.Context, workers int, visit Visitor) (*Stats, error) {
	opts := s.opts
	if workers <= 0 {
		workers = UseAllCores
	}
	opts.Workers = workers
	return s.enumerate(ctx, opts, visit)
}

// Count runs one query and returns the number of maximal cliques without
// materialising them. On an interrupted or stopped run it returns the
// partial count together with the error.
func (s *Session) Count(ctx context.Context) (int64, *Stats, error) {
	stats, err := s.Enumerate(ctx, nil)
	return stats.Cliques, stats, err
}

// Collect runs one query and returns every maximal clique as a fresh slice.
// Convenient for small graphs; large graphs should stream through Enumerate
// or Cliques.
func (s *Session) Collect(ctx context.Context) ([][]int32, *Stats, error) {
	var out [][]int32
	stats, err := s.Enumerate(ctx, func(c []int32) bool {
		out = append(out, append([]int32(nil), c...))
		return true
	})
	return out, stats, err
}

// Cliques returns a range-over-func iterator over the maximal cliques:
//
//	for c := range sess.Cliques(ctx) { ... }
//
// Breaking out of the loop stops the enumeration (the Visitor-returns-false
// path); cancelling ctx stops it at top-branch granularity. The yielded
// slice is reused between iterations — copy it to retain it. Use Enumerate
// directly when the run's Stats or error are needed.
func (s *Session) Cliques(ctx context.Context) iter.Seq[[]int32] {
	return func(yield func([]int32) bool) {
		_, _ = s.Enumerate(ctx, Visitor(yield))
	}
}

// resolveWorkers maps an Options.Workers-style value to an effective worker
// count: 0 and 1 are one worker, UseAllCores is GOMAXPROCS, and anything
// larger than GOMAXPROCS is clamped to it.
func resolveWorkers(w int) int {
	max := runtime.GOMAXPROCS(0)
	switch {
	case w == UseAllCores:
		return max
	case w <= 1:
		return 1
	case w > max:
		return max
	}
	return w
}

// enumerate runs one full-space query. opts is the effective per-query
// option set: the session's normalized options, possibly with the run
// knobs overridden by QueryOptions. The algorithm-defining fields always
// equal the session's, so the cached orderings stay valid. The driver
// resolves opts.Workers, so a parallel request that clamps down to one
// worker still records its fallback reason in Stats.ParallelFallback.
func (s *Session) enumerate(ctx context.Context, opts Options, visit Visitor) (*Stats, error) {
	return s.enumerateRange(ctx, opts, branchRange{}, nil, visit)
}

// enumerateRange is enumerate restricted to a branch interval and observed
// by hook (QueryOptions.BranchDone, nil for none); rng's zero value runs
// the full branch space.
func (s *Session) enumerateRange(ctx context.Context, opts Options, rng branchRange, hook func(lo, hi int, cliques int64, maxCliqueSize int), visit Visitor) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rng.set {
		if n := s.NumTopBranches(); rng.hi > n {
			return nil, fmt.Errorf("core: branch range [%d,%d) exceeds the session's %d top-level branches", rng.lo, rng.hi, n)
		}
	}
	rc := newRunControl(ctx, opts)
	plan := s.sessionPlan(nil,
		func(e *engine, p int) { e.runVertexBranch(s.vertOrd, s.vertPos, p) },
		(*engine).runWholeGraph)
	edgeDriven := opts.Algorithm == EBBMC || opts.Algorithm == HBBMC
	if edgeDriven {
		plan.chunk = (*engine).runEdgeChunk
	}
	plan.residue = func(e *engine) {
		e.emitReduced(s.red.Cliques)
		if edgeDriven && !rc.halted() {
			e.runIsolatedVertices()
		}
	}
	plan.rng, plan.hook, plan.visit = rng, hook, visit
	stats := s.drive(rc, opts, plan)
	return stats, rc.err()
}

// baseStats seeds a query's Stats with the cached preprocessing summary.
// OrderingTime stays zero: the session already paid it (see PrepTime).
func (s *Session) baseStats(workers int) *Stats {
	return &Stats{
		Workers:          workers,
		ReducedVertices:  s.red.NumRemoved,
		ReductionCliques: int64(len(s.red.Cliques)),
		Delta:            s.delta,
		Tau:              s.tau,
		HIndex:           s.hIndex,
	}
}

// runControl carries the cooperative run-state shared by every engine of
// one query: the context's done channel, the one-way stop latch observed by
// the recursions, and the optional clique budget of Options.MaxCliques.
type runControl struct {
	ctx  context.Context
	done <-chan struct{}
	// stop latches true when a Visitor returns false, the clique budget is
	// exhausted, or a halted() check observes the context done. Recursions
	// poll it (a plain atomic load) to unwind promptly.
	stop atomic.Bool
	// cancelled latches true only when a halted() check actually observed
	// the done context — the run really was cut short by it. err() must not
	// consult ctx.Err() directly: a deadline expiring after the last branch
	// would misreport a complete run (or a budget stop) as interrupted.
	cancelled atomic.Bool
	// budget is the remaining clique allowance when limited; taking it below
	// zero rejects the clique, so exactly MaxCliques cliques are counted and
	// delivered regardless of worker count.
	budget  atomic.Int64
	limited bool
}

func newRunControl(ctx context.Context, opts Options) *runControl {
	rc := &runControl{ctx: ctx, done: ctx.Done()}
	if opts.MaxCliques > 0 {
		rc.limited = true
		rc.budget.Store(opts.MaxCliques)
	}
	return rc
}

// stopped reports the stop latch alone — the cheap check recursions poll.
func (rc *runControl) stopped() bool { return rc.stop.Load() }

// halted additionally polls the context; the driver calls it once per
// top-level branch. Observing a done context latches stop so in-flight recursions of
// other workers unwind too.
func (rc *runControl) halted() bool {
	if rc.stop.Load() {
		return true
	}
	select {
	case <-rc.done:
		rc.cancelled.Store(true)
		rc.stop.Store(true)
		return true
	default:
		return false
	}
}

// take consumes one clique from the budget; false means the clique must not
// be counted or delivered.
func (rc *runControl) take() bool {
	if !rc.limited {
		return true
	}
	if rc.budget.Add(-1) < 0 {
		rc.stop.Store(true)
		return false
	}
	return true
}

// err translates the final control state into the query's error: a wrapped
// context error when a cancellation or deadline was observed mid-run,
// ErrStopped for visitor- or budget-initiated stops, nil for complete runs
// (even if the context happens to expire between the last branch and this
// call).
func (rc *runControl) err() error {
	if rc.cancelled.Load() {
		return fmt.Errorf("core: enumeration interrupted: %w", rc.ctx.Err())
	}
	if rc.stop.Load() {
		return ErrStopped
	}
	return nil
}

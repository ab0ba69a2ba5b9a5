package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/graphmining/hbbmc/internal/bitset"
	"github.com/graphmining/hbbmc/internal/graph"
)

// This file implements the exact maximum-clique query (Session.MaxClique):
// branch and bound over the session's top-level branch space, in the style
// of the bit-parallel BnB solvers (San Segundo et al.; Pattabiraman et al.,
// see PAPERS.md). The search reuses the enumeration engine's universes,
// adjacency rows and arenas; what changes is the recursion — no exclusion
// set (maximality is irrelevant, only size), a greedy-coloring upper bound
// per node, and an incumbent shared atomically by every worker so one
// worker's improvement immediately tightens every other worker's bound.

// mcShared is the incumbent state shared by every engine of one MaxClique
// query. The size is an atomic so the recursion's bound checks are a plain
// load on the hot path; the witness clique is updated under the mutex only
// when the size actually improves — O(ω) times per run.
type mcShared struct {
	best atomic.Int64 // incumbent size, read lock-free by bound checks
	mu   sync.Mutex
	//hbbmc:guardedby mu
	clique []int32 // incumbent witness, original vertex ids
}

// offer installs clique (original ids; the slice is copied) as the
// incumbent when it is strictly larger than the current one, and reports
// whether it did. The double check under the mutex makes concurrent offers
// of equal size idempotent.
func (m *mcShared) offer(clique []int32) bool {
	n := int64(len(clique))
	if n <= m.best.Load() {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= m.best.Load() {
		return false
	}
	m.clique = append(m.clique[:0], clique...)
	m.best.Store(n)
	return true
}

// snapshot returns a sorted copy of the incumbent witness.
func (m *mcShared) snapshot() []int32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := append([]int32(nil), m.clique...)
	slices.Sort(out)
	return out
}

// offerS maps the engine's current partial clique S to original ids and
// offers it as the incumbent. Deliberately outside the noalloc recursion:
// the incumbent copy may allocate, but improvements happen at most ω times
// per worker while leaves are reached exponentially often.
func (e *engine) offerS(mc *mcShared) {
	e.emitBuf = e.emitBuf[:0]
	for _, v := range e.S {
		e.emitBuf = append(e.emitBuf, e.red.OrigID[v])
	}
	if mc.offer(e.emitBuf) {
		e.stats.IncumbentUpdates++
	}
	if len(e.S) > e.stats.MaxCliqueSize {
		e.stats.MaxCliqueSize = len(e.S)
	}
}

// colorOrder fills order and colors (both of length |C|) with a greedy
// coloring of the candidate graph: vertices grouped into independent color
// classes, appended in ascending class number. A clique can use at most one
// vertex per class, so depth + colors[i] bounds every clique reachable
// through order[i] — and because the array is ascending in color, one
// failed bound check prunes the entire remaining prefix at once.
//
//hbbmc:noalloc
func (e *engine) colorOrder(adj []bitset.Set, C bitset.Set, order, colors []int32) {
	mark := e.setArena.Mark()
	uncolored := e.setArena.GetUnzeroed()
	uncolored.CopyFrom(C)
	q := e.setArena.GetUnzeroed()
	idx := 0
	for color := int32(1); ; color++ {
		v := uncolored.First()
		if v < 0 {
			break
		}
		// One pass per color class: greedily take mutually non-adjacent
		// vertices from the uncolored pool.
		q.CopyFrom(uncolored)
		for v >= 0 {
			q.Unset(v)
			q.AndNotWith(adj[v])
			uncolored.Unset(v)
			order[idx] = int32(v)
			colors[idx] = color
			idx++
			v = q.First()
		}
	}
	e.setArena.Release(mark)
}

// maxCliqueRec is the branch-and-bound recursion: S (implicit in e.S) is
// the current clique, C the candidates (all adjacent to every member of S),
// cSize = |C|. adj carries the candidate adjacency rows — the masked rows
// inside edge branches, the full rows otherwise. Candidates are branched in
// descending greedy-color order; a node whose depth + color bound cannot
// beat the shared incumbent is cut, and the cut covers every remaining
// candidate of the loop because the order is ascending in color.
//
//hbbmc:noalloc
func (e *engine) maxCliqueRec(adj []bitset.Set, C bitset.Set, cSize int, mc *mcShared) {
	if e.rc.stopped() {
		return
	}
	e.stats.Calls++
	e.stats.BnBCalls++
	depth := len(e.S)
	if depth+cSize <= int(mc.best.Load()) {
		e.stats.BnBPrunes++
		return
	}
	smark := e.setArena.Mark()
	cmark := e.cntArena.mark()
	order := e.cntArena.get(cSize)
	colors := e.cntArena.get(cSize)
	e.colorOrder(adj, C, order, colors)
	childC := e.setArena.GetUnzeroed()
	for i := cSize - 1; i >= 0; i-- {
		if depth+int(colors[i]) <= int(mc.best.Load()) {
			// order is ascending in color: every remaining candidate has an
			// equal or lower bound, so the rest of the loop is pruned too.
			e.stats.BnBPrunes++
			break
		}
		v := int(order[i])
		cnt := childC.AndIntoCount(C, adj[v])
		e.S = append(e.S, e.verts[v])
		if cnt == 0 {
			e.offerS(mc)
		} else {
			e.maxCliqueRec(adj, childC, cnt, mc)
		}
		e.S = e.S[:depth]
		C.Unset(v)
	}
	e.setArena.Release(smark)
	e.cntArena.release(cmark)
}

// runVertexMaxBranch evaluates one vertex-ordered top-level branch of a
// max-clique query: S = {v}, candidates the later-ordered neighbors of v.
// Every maximal clique — the maximum one included — is reachable from the
// branch of its earliest-ordered vertex, so coverage is exact. Unlike the
// enumeration kernel no exclusion side is materialised, and a branch whose
// whole candidate set cannot beat the incumbent is skipped before any
// universe is installed.
//
//hbbmc:noalloc
func (e *engine) runVertexMaxBranch(ord, pos []int32, p int, mc *mcShared) {
	v := ord[p]
	e.stats.TopBranches++
	pv := pos[v]
	e.listBuf = e.listBuf[:0]
	for _, w := range e.g.Neighbors(v) {
		if pos[w] > pv {
			e.listBuf = append(e.listBuf, w)
		}
	}
	inC := len(e.listBuf)
	if 1+inC <= int(mc.best.Load()) {
		e.stats.BnBPrunes++
		return
	}
	e.S = append(e.S[:0], v)
	if inC == 0 {
		e.offerS(mc)
		return
	}
	e.setUniverse(e.listBuf, -1, inC)
	C := e.setArena.Get()
	for j := 0; j < inC; j++ {
		C.Set(j)
	}
	e.maxCliqueRec(e.adjG, C, inC, mc)
}

// runEdgeMaxBranch is runVertexMaxBranch's edge-oriented sibling for the
// EBBMC/HBBMC sessions: S = {a, b}, candidates the common neighbors whose
// triangle side edges both rank later (runEdgeBranch's classification). The
// recursion runs on the masked adjacency: at the branch of a clique's
// minimum-rank edge every other member pair also ranks later, so the
// maximum clique survives the mask, while duplicated work in higher-rank
// branches is cut.
//
//hbbmc:noalloc
func (e *engine) runEdgeMaxBranch(eid int32, mc *mcShared) {
	a, b := e.g.EdgeEndpoints(eid)
	r := e.eo.Rank[eid]
	e.stats.TopBranches++
	best := int(mc.best.Load())
	if 2+int(e.inc.Count(eid)) <= best {
		// Even all common neighbors together cannot beat the incumbent;
		// skip before scanning the incidence list.
		e.stats.BnBPrunes++
		return
	}
	e.S = append(e.S[:0], a, b)
	e.listBuf = e.listBuf[:0]
	e.sideBuf = e.sideBuf[:0]
	lo, hi := e.inc.Range(eid)
	for t := lo; t < hi; t++ {
		cn := commonNeighbor{w: e.inc.Third(t), ea: e.inc.CoSrc(t), eb: e.inc.CoDst(t)}
		if e.eo.Rank[cn.ea] > r && e.eo.Rank[cn.eb] > r {
			e.listBuf = append(e.listBuf, cn.w)
			e.sideBuf = append(e.sideBuf, e.cheapSide(cn))
		}
	}
	inC := len(e.listBuf)
	if 2+inC <= best {
		e.stats.BnBPrunes++
		return
	}
	if inC == 0 {
		e.offerS(mc)
		return
	}
	e.installUniverse(e.listBuf, r, inC)
	e.fillRowsFromIncidence(r, inC)
	C := e.setArena.Get()
	for j := 0; j < inC; j++ {
		C.Set(j)
	}
	e.maxCliqueRec(e.adjH, C, inC, mc)
}

// runWholeMaxBranch runs the single whole-graph branch of the BK/BKPivot
// sessions: S empty, candidates every residual vertex.
func (e *engine) runWholeMaxBranch(mc *mcShared) {
	n := e.g.NumVertices()
	e.stats.TopBranches++
	if n == 0 {
		return
	}
	e.listBuf = e.listBuf[:0]
	for v := int32(0); v < int32(n); v++ {
		e.listBuf = append(e.listBuf, v)
	}
	e.S = e.S[:0]
	e.setUniverse(e.listBuf, -1, n)
	C := e.setArena.Get()
	for j := 0; j < n; j++ {
		C.Set(j)
	}
	e.maxCliqueRec(e.adjG, C, n, mc)
}

// greedyClique builds a maximal clique of g greedily — start from a
// maximum-degree vertex, repeatedly add the candidate with the most
// neighbors inside the shrinking candidate set — the classic heuristic
// incumbent of the BnB literature. Exact size does not matter; any
// reasonable lower bound lets the first branches prune, and the search
// itself recovers whatever the heuristic missed.
func greedyClique(g *graph.Graph) []int32 {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	start := int32(0)
	for v := int32(1); v < int32(n); v++ {
		if g.Degree(v) > g.Degree(start) {
			start = v
		}
	}
	cand := bitset.New(n)
	candN := 0
	for _, w := range g.Neighbors(start) {
		cand.Set(int(w))
		candN++
	}
	clique := []int32{start}
	row := bitset.New(n)
	for candN > 0 {
		bestV, bestCnt := int32(-1), -1
		for i := cand.First(); i >= 0; i = cand.NextAfter(i) {
			cnt := 0
			for _, w := range g.Neighbors(int32(i)) {
				if cand.Has(int(w)) {
					cnt++
				}
			}
			if cnt > bestCnt {
				bestCnt, bestV = cnt, int32(i)
			}
		}
		clique = append(clique, bestV)
		cand.Unset(int(bestV))
		row.Clear()
		for _, w := range g.Neighbors(bestV) {
			row.Set(int(w))
		}
		cand.AndWith(row)
		candN = cand.Count()
	}
	return clique
}

// MaxClique solves the exact maximum-clique problem on the session's graph:
// branch and bound over the session's top-level branches with a
// greedy-coloring upper bound per node and an incumbent seeded by the
// reduction cliques plus a greedy heuristic clique. With opts.Workers > 1
// the branches run on worker goroutines sharing the incumbent bound
// atomically, so one worker's improvement prunes every other worker's
// subtrees. It returns the maximum clique (original vertex ids, sorted
// ascending) and the query Stats; Stats.MaxCliqueSize is ω,
// Stats.BnBCalls/BnBPrunes describe the search.
//
// A cancelled or deadline-exceeded query returns the best incumbent found
// so far together with an error wrapping ctx.Err(). QueryOptions branch
// ranges and clique budgets apply to enumeration queries only and are
// ignored here (ranges are rejected: a range-restricted incumbent would be
// silently wrong).
func (s *Session) MaxClique(ctx context.Context, q QueryOptions) ([]int32, *Stats, error) {
	opts, err := q.apply(s.opts)
	if err != nil {
		return nil, nil, err
	}
	if q.rng().set {
		return nil, nil, errors.New("core: branch ranges apply to enumeration queries only")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts.MaxCliques = 0 // a clique budget is an enumeration concept
	rc := newRunControl(ctx, opts)

	mc := &mcShared{}
	seeds := 0
	// Reduction cliques are maximal cliques of the input graph (original
	// ids already); the largest one seeds the incumbent.
	bestRed := -1
	for i, c := range s.red.Cliques {
		if bestRed < 0 || len(c) > len(s.red.Cliques[bestRed]) {
			bestRed = i
		}
	}
	if bestRed >= 0 && mc.offer(s.red.Cliques[bestRed]) {
		seeds++
	}
	// The greedy heuristic clique of the residual graph (mapped back to
	// original ids) is the classic initial incumbent.
	if h := greedyClique(s.res); len(h) > 0 {
		for i, v := range h {
			h[i] = s.red.OrigID[v]
		}
		if mc.offer(h) {
			seeds++
		}
	}

	// The driver's lone worker iterates the raw ordering; several workers
	// share the cost-ordered schedule, which doubles as a bound-tightening
	// one — the big branches that establish ω run before the cheap tail
	// that then prunes against it.
	plan := s.sessionPlan(
		func(e *engine, p int) { e.runEdgeMaxBranch(s.eo.Order[p], mc) },
		func(e *engine, p int) { e.runVertexMaxBranch(s.vertOrd, s.vertPos, p, mc) },
		func(e *engine) { e.runWholeMaxBranch(mc) })
	stats := s.drive(rc, opts, plan)
	stats.IncumbentUpdates += int64(seeds)
	if best := int(mc.best.Load()); best > stats.MaxCliqueSize {
		stats.MaxCliqueSize = best
	}
	return mc.snapshot(), stats, rc.err()
}

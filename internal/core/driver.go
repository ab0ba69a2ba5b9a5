package core

import (
	"context"

	"github.com/graphmining/hbbmc/internal/graph"
)

// adaptEmit lifts a legacy fire-and-forget callback to a Visitor.
func adaptEmit(emit func([]int32)) Visitor {
	if emit == nil {
		return nil
	}
	return func(c []int32) bool {
		emit(c)
		return true
	}
}

// Enumerate runs the configured algorithm over g and calls emit once per
// maximal clique with the clique's vertex ids (the slice is reused between
// calls — copy it to retain it). emit may be nil to count only. Returns the
// run's statistics.
//
// Deprecated: Enumerate redoes the O(δm) preprocessing on every call and
// cannot be cancelled. Use NewSession and Session.Enumerate, which cache
// the preprocessing and accept a context and a stop-capable Visitor.
func Enumerate(g *graph.Graph, opts Options, emit func([]int32)) (*Stats, error) {
	s, err := NewSession(g, opts)
	if err != nil {
		return nil, err
	}
	seqOpts := s.opts
	seqOpts.Workers = 1
	stats, err := s.enumerate(context.Background(), seqOpts, adaptEmit(emit))
	stats.OrderingTime = s.prepTime
	return stats, err
}

// Count enumerates without reporting cliques and returns their number.
//
// Deprecated: use NewSession and Session.Count.
func Count(g *graph.Graph, opts Options) (int64, *Stats, error) {
	stats, err := Enumerate(g, opts, nil)
	if err != nil {
		if stats != nil {
			return stats.Cliques, stats, err
		}
		return 0, nil, err
	}
	return stats.Cliques, stats, nil
}

// Collect returns all maximal cliques as freshly allocated slices. Intended
// for tests and small graphs; production callers should stream through a
// Visitor.
//
// Deprecated: use NewSession and Session.Collect.
func Collect(g *graph.Graph, opts Options) ([][]int32, *Stats, error) {
	var out [][]int32
	stats, err := Enumerate(g, opts, func(c []int32) {
		out = append(out, append([]int32(nil), c...))
	})
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// runWholeGraph evaluates the entire residual graph as a single branch
// (S=∅, C=V, X=∅) — the shape of the original BK and BK_Pivot algorithms.
// Being one branch, it is also the cancellation granule: a context
// cancellation is only observed before it starts.
func (e *engine) runWholeGraph() {
	n := e.g.NumVertices()
	if n == 0 || e.rc.halted() {
		return
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	e.setUniverse(all, -1, n)
	C := e.setArena.Get()
	for i := 0; i < n; i++ {
		C.Set(i)
	}
	X := e.setArena.Get()
	e.S = e.S[:0]
	e.stats.TopBranches++
	e.vertexRec(nil, C, X)
}

// runVertexBranch evaluates the vertex-ordered top-level branch at
// ordering position p (Eq. 1): v = ord[p] branches with C = its
// later-ordered neighbors and X = its earlier ones, the universe being N(v).
//
// The universe is laid out candidates-first, mirroring the edge-oriented
// top level: exclusion members only need adjacency rows of their own to
// compete as Tomita pivots, so their rows — the dominant share of the build
// cost around hubs, whose earlier-neighbor side is unbounded by δ — are
// built only when the branch is recursion-heavy enough for pivot quality
// to pay for them.
//
//hbbmc:noalloc
func (e *engine) runVertexBranch(ord, pos []int32, p int) {
	v := ord[p]
	nbrs := e.g.Neighbors(v)
	pv := pos[v]
	e.listBuf = e.listBuf[:0]
	for _, w := range nbrs {
		if pos[w] > pv {
			e.listBuf = append(e.listBuf, w)
		}
	}
	inC := len(e.listBuf)
	for _, w := range nbrs {
		if pos[w] <= pv {
			e.listBuf = append(e.listBuf, w)
		}
	}
	rowCount := inC
	if withXRows(inC, len(nbrs)) {
		rowCount = len(nbrs)
	}
	e.setUniverse(e.listBuf, -1, rowCount)
	C := e.setArena.Get()
	X := e.setArena.Get()
	for j := 0; j < inC; j++ {
		C.Set(j)
	}
	for j := inC; j < len(nbrs); j++ {
		X.Set(j)
	}
	e.S = append(e.S[:0], v)
	e.stats.TopBranches++
	e.vertexRec(nil, C, X)
}

// runIsolatedVertices completes the edge-oriented split: isolated vertices
// are covered by no edge branch (Eq. 3 at the initial branch), so each is a
// maximal 1-clique. The driver runs it once per query as part of the
// preprocessing residue, ahead of every edge branch.
//
//hbbmc:ctxpoll
func (e *engine) runIsolatedVertices() {
	for v := int32(0); v < int32(e.g.NumVertices()); v++ {
		if e.rc.stopped() {
			return
		}
		if e.g.Degree(v) == 0 {
			e.S = append(e.S[:0], v)
			e.emit(nil)
		}
	}
}

// cheapSide picks the member's triangle side edge with the shorter
// incidence list, so row filling scans the fewest triangles.
//
//hbbmc:noalloc
func (e *engine) cheapSide(cn commonNeighbor) int32 {
	if e.inc.Count(cn.eb) < e.inc.Count(cn.ea) {
		return cn.eb
	}
	return cn.ea
}

// runEdgeBranch evaluates the top-level branch of one edge: candidates are
// the common neighbors whose triangle edges both rank later (Algorithms 3
// and 4). The branch universe comes from the precomputed triangle
// incidence, so no adjacency merging happens here; tiny branches (at most
// two common neighbors) are resolved inline without materialising a
// universe.
//
//hbbmc:noalloc
func (e *engine) runEdgeBranch(eid int32) {
	g := e.g
	a, b := g.EdgeEndpoints(eid)
	r := e.eo.Rank[eid]
	e.stats.TopBranches++
	e.S = append(e.S[:0], a, b)
	if e.inc.Count(eid) == 0 {
		// No triangles through the edge: {a,b} is maximal.
		e.emit(nil)
		return
	}
	common := e.cnBuf[:0]
	inC := 0
	lo, hi := e.inc.Range(eid)
	for t := lo; t < hi; t++ {
		cn := commonNeighbor{w: e.inc.Third(t), ea: e.inc.CoSrc(t), eb: e.inc.CoDst(t)}
		cn.cand = e.eo.Rank[cn.ea] > r && e.eo.Rank[cn.eb] > r
		if cn.cand {
			inC++
		}
		common = append(common, cn)
	}
	e.cnBuf = common
	if inC == 0 {
		// Every common neighbor blocks maximality and no candidate remains:
		// the branch cannot produce any clique. Skipping it avoids
		// materialising a universe for the two low-rank sides of every
		// triangle.
		return
	}
	if e.switchDepth <= 1 && !ablateTinyBranch && e.resolveTinyBranch(common, inC, r) {
		return
	}
	// Candidates first. sideBuf keeps, per member, the cheaper of its two
	// triangle side edges; rows are then filled from the incidence lists of
	// those side edges instead of global adjacency scans. Exclusion members
	// get rows too when the branch is recursion-heavy (they restore full
	// Tomita pivot quality); on branch-setup-bound graphs the candidate rows
	// alone are cheaper and sufficient.
	e.listBuf = e.listBuf[:0]
	e.sideBuf = e.sideBuf[:0]
	for _, cn := range common {
		if cn.cand {
			e.listBuf = append(e.listBuf, cn.w)
			e.sideBuf = append(e.sideBuf, e.cheapSide(cn))
		}
	}
	rowCount := inC
	if withXRows(inC, len(common)) {
		rowCount = len(common)
	}
	for _, cn := range common {
		if !cn.cand {
			e.listBuf = append(e.listBuf, cn.w)
			if rowCount > inC {
				e.sideBuf = append(e.sideBuf, e.cheapSide(cn))
			}
		}
	}
	word := false
	if e.switchDepth <= 1 && e.inner == InnerPivot && len(common) <= 64 && !ablateWordKernel {
		word = e.installWordUniverse(e.listBuf, r, rowCount, inC)
	} else {
		e.installUniverse(e.listBuf, r, rowCount)
		e.fillRowsFromIncidence(r, rowCount)
	}
	if word {
		e.wordPivotRec(lowBits(inC), lowBits(len(common))&^lowBits(inC))
		return
	}
	C := e.setArena.Get()
	X := e.setArena.Get()
	for j := range common {
		if j < inC {
			C.Set(j)
		} else {
			X.Set(j)
		}
	}
	if e.switchDepth <= 1 {
		// HBBMC default: one edge level, then the vertex phase with the
		// precomputed masked adjacency (mask threshold = this edge). When no
		// candidate edge is masked — the common case under the truss
		// ordering — the masked and full adjacencies agree on the candidate
		// region and agree hereditarily as C shrinks, so the whole branch
		// can run the cheaper unmasked recursion.
		if !ablateMaskFree && e.maskFreeCandidates(inC) {
			e.vertexRec(nil, C, X)
		} else {
			e.vertexRec(e.adjH, C, X)
		}
	} else {
		e.edgeRec(C, X, r, 1)
	}
}

// resolveTinyBranch closes top-level branches with at most two common
// neighbors directly; they are by far the most frequent case on sparse
// graphs and need no universe. Returns false when the general machinery
// must take over. e.S is the branch's {a,b}.
//
//hbbmc:noalloc
func (e *engine) resolveTinyBranch(common []commonNeighbor, inC int, r int32) bool {
	if len(common) > 2 {
		return false
	}
	if len(common) == 1 {
		// Single candidate (inC == 1 here — inC == 0 was handled earlier):
		// S ∪ {w} has no possible extension or blocker.
		e.S = append(e.S, common[0].w)
		e.emit(nil)
		e.S = e.S[:len(e.S)-1]
		return true
	}
	w1, w2 := common[0], common[1]
	we := e.g.EdgeID(w1.w, w2.w)
	switch {
	case inC == 2:
		if we >= 0 && e.eo.Rank[we] > r {
			// Candidate edge present: S ∪ {w1,w2} is the unique maximal
			// clique of the branch.
			e.S = append(e.S, w1.w, w2.w)
			e.emit(nil)
			e.S = e.S[:len(e.S)-2]
		} else if we < 0 {
			// Independent candidates: each extends S maximally. Unrolled —
			// a slice literal here would allocate on every tiny branch.
			e.S = append(e.S, w1.w)
			e.emit(nil)
			e.S[len(e.S)-1] = w2.w
			e.emit(nil)
			e.S = e.S[:len(e.S)-1]
		}
		// Masked candidate edge (rank ≤ r): both extensions are dominated
		// in G and the containing cliques belong to the earlier branch.
	default: // inC == 1: one candidate, one exclusion vertex
		cand := w1
		if !cand.cand {
			cand = w2
		}
		if we < 0 {
			// The exclusion vertex is not adjacent to the candidate, so it
			// does not block S ∪ {cand}.
			e.S = append(e.S, cand.w)
			e.emit(nil)
			e.S = e.S[:len(e.S)-1]
		}
	}
	return true
}

// commonNeighbor is a common neighbor w of an edge (a,b) along with the
// edge ids of (a,w) and (b,w) and its candidate-vs-exclusion classification.
type commonNeighbor struct {
	w      int32
	ea, eb int32
	cand   bool
}

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

// The rest of this file is the top-level branch front end. One step per
// branch shape lays a branch's universe out in listBuf, candidates first,
// and starts its partial clique S: the whole-graph step for BK and
// BKPivot, the vertex step for the ordered vertex frameworks (Eq. 1) and
// the edge step for EBBMC and HBBMC (Algorithms 3 and 4). One install
// (engine.go) then maps the local ids and fills the rows, so each query's
// kernel keeps only its own prune and its recursion.

// openWholeBranch lays out the single whole-graph branch of BK and
// BKPivot: S empty and every residual vertex a candidate. It returns the
// vertex count.
//
//hbbmc:noalloc
func (e *engine) openWholeBranch() int {
	n := e.g.NumVertices()
	e.stats.TopBranches++
	e.S = e.S[:0]
	e.listBuf = e.listBuf[:0]
	for v := range int32(n) {
		e.listBuf = append(e.listBuf, v)
	}
	return n
}

// openVertexBranch lays out the vertex-ordered top-level branch at
// ordering position p (Eq. 1): S = {v} for v = ord[p], its later-ordered
// neighbours (the candidates) first and, when withX is set, its earlier
// ones (the exclusion set) after them. It returns the candidate count.
//
//hbbmc:noalloc
func (e *engine) openVertexBranch(ord, pos []int32, p int, withX bool) int {
	v := ord[p]
	e.stats.TopBranches++
	e.S = append(e.S[:0], e.origOf(v))
	nbrs := e.g.Neighbors(v)
	pv := pos[v]
	e.listBuf = e.listBuf[:0]
	for _, w := range nbrs {
		if pos[w] > pv {
			e.listBuf = append(e.listBuf, w)
		}
	}
	inC := len(e.listBuf)
	if withX {
		for _, w := range nbrs {
			if pos[w] <= pv {
				e.listBuf = append(e.listBuf, w)
			}
		}
	}
	return inC
}

// runWholeGraph evaluates the entire residual graph as a single branch
// (S=∅, C=V, X=∅) — the shape of the original BK and BK_Pivot algorithms.
// Being one branch, it is also the cancellation granule: a context
// cancellation is only observed before it starts.
//
//hbbmc:noalloc
func (e *engine) runWholeGraph() {
	if e.g.NumVertices() == 0 {
		return
	}
	n := e.openWholeBranch()
	e.setUniverse(e.listBuf, -1, n, false)
	C, X := e.branchSets(n)
	e.vertexRec(nil, C, X)
}

// runVertexBranch evaluates the vertex-ordered top-level branch at
// ordering position p: C = the later-ordered neighbours of v, X = its
// earlier ones, the universe being N(v). Exclusion members get rows only
// when the branch is recursion-heavy (rowCountOf): around hubs, whose
// earlier-neighbour side is unbounded by δ, their rows dominate the build
// cost.
//
//hbbmc:noalloc
func (e *engine) runVertexBranch(ord, pos []int32, p int) {
	inC := e.openVertexBranch(ord, pos, p, true)
	e.setUniverse(e.listBuf, -1, rowCountOf(inC, len(e.listBuf)), false)
	C, X := e.branchSets(inC)
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
			e.S = append(e.S[:0], e.origOf(v))
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
	e.openEdgeBranch(eid)
	if e.inc.Count(eid) == 0 {
		// No triangles through the edge: {a,b} is maximal.
		e.emit(nil)
		return
	}
	common, inC, r := e.classifyEdge(eid)
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
	e.runEdgeUniverse(common, inC, r, false)
}

// openEdgeBranch counts the top-level branch of edge eid and starts its
// partial clique with the edge's endpoints.
func (e *engine) openEdgeBranch(eid int32) {
	a, b := e.g.EdgeEndpoints(eid)
	e.stats.TopBranches++
	e.S = append(e.S[:0], e.origOf(a), e.origOf(b))
}

// classifyEdge reads the common neighbors of edge eid into cnBuf, each
// classified once by edgeCommon, and returns them with the candidate count
// and the edge's rank.
//
//hbbmc:noalloc
func (e *engine) classifyEdge(eid int32) ([]commonNeighbor, int, int32) {
	r := e.eo.Rank[eid]
	common, inC := e.edgeCommon(eid, r, e.cnBuf[:0])
	e.cnBuf = common
	return common, inC, r
}

// edgeCommon appends the common neighbors of edge eid (rank r) to buf, each
// classified as a candidate or an exclusion member, and returns the list
// with its candidate count.
//
//hbbmc:noalloc
func (e *engine) edgeCommon(eid, r int32, buf []commonNeighbor) ([]commonNeighbor, int) {
	inC := 0
	lo, hi := e.inc.Range(eid)
	for t := lo; t < hi; t++ {
		cn := commonNeighbor{w: e.inc.Third(t), ea: e.inc.CoSrc(t), eb: e.inc.CoDst(t)}
		cn.cand = e.eo.Rank[cn.ea] > r && e.eo.Rank[cn.eb] > r
		if cn.cand {
			inC++
		}
		buf = append(buf, cn)
	}
	return buf, inC
}

// layEdgeUniverse lays the classified common neighbors of an edge branch
// out in listBuf, the inC candidates first and, when withX is set, the
// exclusion members after them. sideBuf keeps, per row-bearing member (the
// first rowCount), the cheaper of its two triangle side edges, whose
// incidence list fills its rows.
//
//hbbmc:noalloc
func (e *engine) layEdgeUniverse(common []commonNeighbor, inC, rowCount int, withX bool) {
	e.listBuf = e.listBuf[:0]
	e.sideBuf = e.sideBuf[:0]
	for _, cn := range common {
		if cn.cand {
			e.listBuf = append(e.listBuf, cn.w)
			e.sideBuf = append(e.sideBuf, e.cheapSide(cn))
		}
	}
	if !withX {
		return
	}
	for _, cn := range common {
		if !cn.cand {
			e.listBuf = append(e.listBuf, cn.w)
			if rowCount > inC {
				e.sideBuf = append(e.sideBuf, e.cheapSide(cn))
			}
		}
	}
}

// rowCountOf is the shared break-even heuristic of the vertex and edge
// enumeration kernels: the number of universe members that get adjacency
// rows. Exclusion members get rows of their own, restoring full Tomita
// pivot quality over C ∪ X, only when the branch is recursion-heavy:
// enough candidates absolutely, and candidates not dwarfed by the
// exclusion side whose rows would dominate the build cost.
func rowCountOf(inC, universe int) int {
	if inC >= 12 && 4*inC >= universe {
		return universe
	}
	return inC
}

// runEdgeUniverse installs the universe of an edge branch with inC > 0
// candidates among its common neighbors and runs the recursion on it. Its
// rows are cut from the anchor group's rows when cut is set (anchor.go),
// which yields the same rows as the side edges' walk.
//
//hbbmc:noalloc
func (e *engine) runEdgeUniverse(common []commonNeighbor, inC int, r int32, cut bool) {
	rowCount := rowCountOf(inC, len(common))
	e.layEdgeUniverse(common, inC, rowCount, true)
	if k := len(common); e.wordKernel(k) {
		// Without the mask-free check every branch starts masked, as the
		// generic path's does.
		masked := e.installWordUniverse(e.listBuf, r, rowCount, inC, cut) || ablateMaskFree
		if k <= 64 {
			e.wordPivotRec(lowBits(inC), lowBits(k)&^lowBits(inC), masked)
		} else {
			cand := lowBits2(inC)
			e.wordPivotRec2(cand, lowBits2(k).andNot(cand), masked)
		}
		return
	}
	e.setUniverse(e.listBuf, r, rowCount, cut)
	C, X := e.branchSets(inC)
	switch {
	case e.switchDepth > 1:
		e.edgeRec(C, X, r, 1)
	case !ablateMaskFree && !e.maskedEdgesIn(e.adjH, C):
		// HBBMC default: one edge level, then the vertex phase with the
		// precomputed masked adjacency (mask threshold = this edge). When no
		// candidate edge is masked — the common case under the truss
		// ordering — the masked and full adjacencies agree on the candidate
		// region and agree hereditarily as C shrinks, so the whole branch
		// can run the cheaper unmasked recursion.
		e.vertexRec(nil, C, X)
	default:
		e.vertexRec(e.adjH, C, X)
	}
}

// wordKernel reports whether an edge branch with a universe of k members
// runs on the word kernels (wordrec.go): HBBMC at switch depth 1 with the
// Tomita pivot inner recursion, up to maxWordUniverse members. The mask
// drop's ablation keeps the generic path.
func (e *engine) wordKernel(k int) bool {
	return e.switchDepth <= 1 && e.inner == InnerPivot && k <= maxWordUniverse &&
		!ablateWordKernel && !ablateMaskDrop
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
		e.S = append(e.S, e.origOf(common[0].w))
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
			e.S = append(e.S, e.origOf(w1.w), e.origOf(w2.w))
			e.emit(nil)
			e.S = e.S[:len(e.S)-2]
		} else if we < 0 {
			// Independent candidates: each extends S maximally. Unrolled —
			// a slice literal here would allocate on every tiny branch.
			e.S = append(e.S, e.origOf(w1.w))
			e.emit(nil)
			e.S[len(e.S)-1] = e.origOf(w2.w)
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
			e.S = append(e.S, e.origOf(cand.w))
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

package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/graphmining/hbbmc/internal/bitset"
	"github.com/graphmining/hbbmc/internal/order"
	"github.com/graphmining/hbbmc/internal/reduce"
)

// This file implements k-clique counting (Session.CountKCliques), promoted
// from the standalone internal/kclique seed onto the session kernels: the
// branches come from the session's cached orderings (the truss edge order
// with masked adjacency rows for the edge-driven algorithms, the vertex
// ordering otherwise), the candidate sets live in the engine's epoch-
// stamped universes, and the recursion counts through the fused
// intersect+popcount kernels with arena scratch — the same machinery the
// enumerator runs on.
//
// Correctness note on graph reduction: k-clique counting is defined over
// the *input* graph, but a GR session's cached orderings cover only the
// residual graph — the reduction peels vertices whose maximal cliques are
// known, which is sound for MCE but drops their k-cliques. Sessions whose
// reduction removed nothing (and whose algorithm has an ordering) count on
// the cached preprocessing; any other session lazily builds — once, cached
// like the branch schedule — a degeneracy ordering of the source graph and
// counts over that instead.

// kcliqueRec counts the cliques of exactly `need` vertices inside the
// candidate set C (cSize = |C|), accumulating into Stats.KCliques.
// Uniqueness is by consume-ascending iteration: once a candidate's subtree
// is explored the candidate leaves C, so no clique is reachable through two
// of its members. adj carries the branch's adjacency rows (masked inside
// edge branches).
//
//hbbmc:noalloc
func (e *engine) kcliqueRec(adj []bitset.Set, C bitset.Set, cSize, need int) {
	if need == 1 {
		e.stats.KCliques += int64(cSize)
		return
	}
	if cSize < need {
		return
	}
	if e.rc.stopped() {
		return
	}
	e.stats.Calls++
	if need == 2 {
		// Bottom level fused: the edges among C, counted consume-ascending
		// without materialising child sets.
		for v := C.First(); v >= 0; v = C.First() {
			C.Unset(v)
			e.stats.KCliques += int64(C.AndCount(adj[v]))
		}
		return
	}
	mark := e.setArena.Mark()
	childC := e.setArena.GetUnzeroed()
	for v := C.First(); v >= 0 && cSize >= need; v = C.First() {
		C.Unset(v)
		cSize--
		cnt := childC.AndIntoCount(C, adj[v])
		e.kcliqueRec(adj, childC, cnt, need-1)
	}
	e.setArena.Release(mark)
}

// runVertexKBranch counts the k-cliques whose earliest-ordered vertex is
// ord[p]: candidates are the later-ordered neighbors, and the inner
// recursion needs k-1 of them.
//
//hbbmc:noalloc
func (e *engine) runVertexKBranch(ord, pos []int32, p, k int) {
	e.kBranch(e.openVertexBranch(ord, pos, p, false), -1, k-1)
}

// runEdgeKBranch counts the k-cliques whose minimum-rank edge is eid
// (k >= 3; the driver resolves smaller k without branching): candidates are
// the common neighbors whose triangle side edges both rank later, exactly
// the EBBkC classification of the kclique seed, and the recursion runs on
// the masked adjacency so every remaining edge of a counted clique ranks
// later too — each k-clique is counted at exactly one edge branch. For
// k == 3 the candidates themselves are the count and no universe is built.
//
//hbbmc:noalloc
func (e *engine) runEdgeKBranch(eid int32, k int) {
	e.openEdgeBranch(eid)
	common, inC, r := e.classifyEdge(eid)
	if k == 3 {
		e.stats.KCliques += int64(inC)
		return
	}
	e.layEdgeUniverse(common, inC, inC, false)
	e.kBranch(inC, r, k-2)
}

// kBranch counts the cliques of `need` more vertices in a vertex or edge
// branch (rank r, -1 for a vertex) whose shape step laid its inC
// candidates out in listBuf.
//
//hbbmc:noalloc
func (e *engine) kBranch(inC int, r int32, need int) {
	if inC < need {
		return
	}
	adj, C := e.installCandidates(inC, r)
	e.kcliqueRec(adj, C, inC, need)
}

// ensureKCBasis lazily builds the source-graph fallback basis: a degeneracy
// ordering of s.src plus an identity reduction, computed once and cached on
// the session like the branch schedule is.
func (s *Session) ensureKCBasis() {
	s.kcOnce.Do(func() {
		d := order.DegeneracyOrdering(s.src)
		s.kcOrd, s.kcPos = d.Order, d.Pos
		s.kcRed = reduce.Identity(s.src)
		s.kcBytes.Store(int64(len(s.kcOrd)+len(s.kcPos))*4 + s.kcRed.MemoryFootprint())
	})
}

// kcPlan resolves the branch basis one CountKCliques query runs on: the
// session's own branch space when its preprocessing counts k-cliques
// exactly, otherwise the source-graph fallback basis, which has no cost
// schedule.
func (s *Session) kcPlan(k int) *branchPlan {
	if s.red.NumRemoved > 0 || s.opts.Algorithm == BK || s.opts.Algorithm == BKPivot {
		s.ensureKCBasis()
		return &branchPlan{g: s.src, red: s.kcRed, n: len(s.kcOrd),
			branch: func(e *engine, p int) { e.runVertexKBranch(s.kcOrd, s.kcPos, p, k) }}
	}
	return s.sessionPlan(
		func(e *engine, p int) { e.runEdgeKBranch(s.eo.Order[p], k) },
		func(e *engine, p int) { e.runVertexKBranch(s.vertOrd, s.vertPos, p, k) },
		nil)
}

// CountKCliques returns the number of k-vertex cliques of the session's
// input graph (not just the maximal ones — every clique of exactly k
// vertices counts once). k = 1 counts vertices, k = 2 edges; larger k runs
// the EBBkC-style branch recursion on the session kernels, in parallel when
// opts.Workers > 1. The count is also available as Stats.KCliques, which is
// how the partial counts of workers — and of an interrupted run — compose.
//
// A cancelled or deadline-exceeded query returns the partial count together
// with an error wrapping ctx.Err(). QueryOptions branch ranges and clique
// budgets apply to enumeration queries only (ranges are rejected).
func (s *Session) CountKCliques(ctx context.Context, k int, q QueryOptions) (int64, *Stats, error) {
	if k <= 0 {
		return 0, nil, fmt.Errorf("core: CountKCliques needs k >= 1, got %d", k)
	}
	opts, err := q.apply(s.opts)
	if err != nil {
		return 0, nil, err
	}
	if q.rng().set {
		return 0, nil, errors.New("core: branch ranges apply to enumeration queries only")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts.MaxCliques = 0
	if k <= 2 {
		// Vertices and edges: nothing to branch on.
		stats := s.baseStats(1)
		stats.KCliques = int64(s.src.NumVertices())
		if k == 2 {
			stats.KCliques = int64(s.src.NumEdges())
		}
		return stats.KCliques, stats, nil
	}
	rc := newRunControl(ctx, opts)
	stats := s.drive(rc, opts, s.kcPlan(k))
	return stats.KCliques, stats, rc.err()
}

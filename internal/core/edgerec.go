package core

import (
	"math"
	"math/bits"
	"slices"

	"github.com/graphmining/hbbmc/internal/bitset"
)

// localEdge is an edge of the branch-local candidate graph, carrying its
// global edge-order rank.
type localEdge struct {
	a, b int32
	rank int32
}

// edgeRec is the edge-oriented BK recursion (Eqs. 2 and 3 of the paper).
// State: the implicit partial clique e.S, candidate vertices C, exclusion
// vertices X, and maxRank — the rank of the last branched edge on the path.
// The branch's candidate graph consists of the edges inside C whose rank
// exceeds maxRank (the edge-set exclusion of Eq. 2); candidates without such
// an edge are the zero-degree vertices of Eq. 3.
//
// depth counts edge-branching levels consumed so far; at e.switchDepth the
// recursion hands over to the vertex-oriented phase with a freshly built
// masked adjacency.
//
// The recursion allocates nothing in steady state: candidate edges stack in
// e.edgeBuf across levels (each call appends past its parent's segment and
// truncates on exit) and the per-level degree tallies come from the
// cntArena.
//
//hbbmc:noalloc
func (e *engine) edgeRec(C, X bitset.Set, maxRank int32, depth int) {
	if e.rc.stopped() {
		return
	}
	e.stats.Calls++
	e.stats.EdgeCalls++
	if C.IsEmpty() {
		if X.IsEmpty() {
			e.emit(nil)
		}
		return
	}
	k := len(e.verts)
	mark := e.setArena.Mark()
	imark := e.cntArena.mark()
	tmp := e.setArena.GetUnzeroed()

	// Collect the candidate-graph edges: pairs inside C with rank > maxRank.
	edgeBase := len(e.edgeBuf)
	hDeg := e.cntArena.getZeroed(k)
	cSize, minG := 0, math.MaxInt
	e.ensureCnt()
	for wi, cw := range C {
		base := wi * 64
		for ; cw != 0; cw &= cw - 1 {
			i := base + bits.TrailingZeros64(cw)
			cnt := e.adjG[i].AndCount(C)
			e.cntBuf[i] = int32(cnt)
			cSize++
			if cnt < minG {
				minG = cnt
			}
			tmp.AndInto(C, e.adjG[i])
			// Only pairs j > i: mask off bit i and everything below it in
			// its word, then walk the remaining words.
			wj := i / 64
			w := tmp[wj] &^ (^uint64(0) >> (63 - uint(i)%64))
			for jb := wj * 64; ; {
				for ; w != 0; w &= w - 1 {
					j := jb + bits.TrailingZeros64(w)
					if r := e.rankOfLocal(i, j); r > maxRank {
						e.edgeBuf = append(e.edgeBuf, localEdge{int32(i), int32(j), r})
						hDeg[i]++
						hDeg[j]++
					}
				}
				wj++
				if wj >= len(tmp) {
					break
				}
				jb, w = wj*64, tmp[wj]
			}
		}
	}
	e.stats.PivotWords += int64(cSize * len(C))
	edges := e.edgeBuf[edgeBase:]

	// Early termination: the candidate graph is dense enough and carries no
	// masked edge iff every candidate's G-degree equals its H-degree.
	if e.plexBranch(cSize, minG) && X.IsEmpty() && edgeDegreesMatch(e, C, hDeg) && e.emitPlexDirect(C, cSize) {
		e.setArena.Release(mark)
		e.cntArena.release(imark)
		e.edgeBuf = e.edgeBuf[:edgeBase]
		return
	}

	slices.SortFunc(edges, func(x, y localEdge) int { return int(x.rank - y.rank) })

	childC := e.setArena.GetUnzeroed()
	childX := e.setArena.GetUnzeroed()
	for _, f := range edges {
		x, y := int(f.a), int(f.b)
		// Candidates of the sub-branch: common neighbors whose edges to
		// both x and y rank after f (Eq. 2); common neighbors failing the
		// rank test still block maximality and join X.
		tmp.AndInto(C, e.adjG[x])
		tmp.AndWith(e.adjG[y])
		childC.Clear()
		childX.AndInto(X, e.adjG[x])
		childX.AndWith(e.adjG[y])
		for wi, w := range tmp {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				v := base + bits.TrailingZeros64(w)
				if e.rankOfLocal(x, v) > f.rank && e.rankOfLocal(y, v) > f.rank {
					childC.Set(v)
				} else {
					childX.Set(v)
				}
			}
		}
		e.S = append(e.S, e.orig[x], e.orig[y])
		if depth+1 >= e.switchDepth {
			e.switchToVertex(childC, childX, f.rank)
		} else {
			e.edgeRec(childC, childX, f.rank, depth+1)
		}
		e.S = e.S[:len(e.S)-2]
	}

	// Zero-degree candidates (Eq. 3): S ∪ {v} is maximal iff v is isolated
	// in G[C ∪ X] — any neighbor either extends the clique (so S ∪ {v} is
	// not maximal) or was covered by an earlier edge branch.
	for wi, cw := range C {
		base := wi * 64
		for ; cw != 0; cw &= cw - 1 {
			v := base + bits.TrailingZeros64(cw)
			if hDeg[v] != 0 {
				continue
			}
			if e.adjG[v].AndAny(X) || e.adjG[v].AndAny(C) {
				continue
			}
			e.S = append(e.S, e.orig[v])
			e.emit(nil)
			e.S = e.S[:len(e.S)-1]
		}
	}
	e.setArena.Release(mark)
	e.cntArena.release(imark)
	e.edgeBuf = e.edgeBuf[:edgeBase]
}

// edgeDegreesMatch reports whether every candidate's full-graph degree in C
// equals its candidate-graph degree, i.e. no edge inside C is masked. The
// caller's scan left the full degrees in cntBuf.
func edgeDegreesMatch(e *engine, C bitset.Set, hDeg []int32) bool {
	for wi, cw := range C {
		base := wi * 64
		for ; cw != 0; cw &= cw - 1 {
			i := base + bits.TrailingZeros64(cw)
			if hDeg[i] != e.cntBuf[i] {
				return false
			}
		}
	}
	return true
}

// switchToVertex transitions a hybrid branch from edge-oriented to
// vertex-oriented branching: the candidate graph's masked adjacency (edges
// with rank > maxRank) is materialised for the current candidates and the
// configured inner recursion takes over.
func (e *engine) switchToVertex(C, X bitset.Set, maxRank int32) {
	// Fast path: at the top switch (depth 1) the universe-wide masked rows
	// built by setUniverse already encode rank > baseRank; they are only
	// valid when maxRank equals that base rank, which the driver guarantees
	// by calling vertexRec directly. Reaching here means a deeper switch, so
	// build rows for the current candidates.
	//
	// The row table is an engine-level scratch slice: the vertex phase never
	// re-enters the edge phase, so two switchToVertex frames are never live
	// at once, and the recursion below only ever reads rows of vertices in
	// its (shrinking) candidate set — stale entries outside C are never
	// touched.
	mark := e.setArena.Mark()
	if cap(e.maskRow) < len(e.verts) {
		e.maskRow = make([]bitset.Set, len(e.verts))
	}
	rows := e.maskRow[:len(e.verts)]
	C.ForEachWord(func(base int, cw uint64) {
		for ; cw != 0; cw &= cw - 1 {
			i := base + bits.TrailingZeros64(cw)
			row := e.setArena.Get()
			rows[i] = row
			adj := e.adjG[i]
			for wj, w := range C {
				jb := wj * 64
				w &= adj[wj]
				for ; w != 0; w &= w - 1 {
					j := jb + bits.TrailingZeros64(w)
					if j != i && e.rankOfLocal(i, j) > maxRank {
						row.Set(j)
					}
				}
			}
		}
	})
	e.vertexRec(rows, C, X)
	e.setArena.Release(mark)
}

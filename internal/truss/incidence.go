package truss

import (
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/order"
)

// Incidence records, for every edge, the triangles through it. It is the
// O(δm)-time, O(#triangles)-space structure behind both the truss peeling
// and the edge-oriented branching top level (the paper's V+/E+
// bookkeeping): once built, neither needs adjacency merges again.
//
// For an entry of edge e = (src,dst) describing triangle {src,dst,x}:
//   - Third(...) is the apex vertex x,
//   - CoSrc(...) is the edge id of (src,x),
//   - CoDst(...) is the edge id of (dst,x).
//
// The canonical orientation lets callers pick "the co-edge through my
// endpoint" with a single comparison instead of endpoint lookups.
type Incidence struct {
	off   []int32 // per-edge offsets into the entry arrays, len m+1
	coSrc []int32 // edge id of (src, third)
	coDst []int32 // edge id of (dst, third)
	third []int32 // apex vertex
}

// Count returns the number of triangles through edge e (its support).
func (inc *Incidence) Count(e int32) int32 {
	return inc.off[e+1] - inc.off[e]
}

// Range returns the entry index range [lo, hi) of edge e for use with
// CoSrc/CoDst/Third.
func (inc *Incidence) Range(e int32) (lo, hi int32) {
	return inc.off[e], inc.off[e+1]
}

// CoSrc returns entry i's co-edge through the smaller endpoint of its edge.
func (inc *Incidence) CoSrc(i int32) int32 { return inc.coSrc[i] }

// CoDst returns entry i's co-edge through the larger endpoint of its edge.
func (inc *Incidence) CoDst(i int32) int32 { return inc.coDst[i] }

// Third returns entry i's apex vertex.
func (inc *Incidence) Third(i int32) int32 { return inc.third[i] }

// ForEach calls fn with the two co-edges of every triangle through e.
func (inc *Incidence) ForEach(e int32, fn func(e1, e2 int32)) {
	for i := inc.off[e]; i < inc.off[e+1]; i++ {
		fn(inc.coSrc[i], inc.coDst[i])
	}
}

// MemoryFootprint returns the number of bytes held by the incidence arrays
// (offsets plus the three per-triangle-entry columns), the retained-size
// estimate used by session cache budgets.
func (inc *Incidence) MemoryFootprint() int64 {
	return int64(len(inc.off)+len(inc.coSrc)+len(inc.coDst)+len(inc.third)) * 4
}

// Triangles returns the total number of triangles in the underlying graph.
func (inc *Incidence) Triangles() int64 {
	if len(inc.off) == 0 {
		return 0
	}
	return int64(inc.off[len(inc.off)-1]) / 3
}

// BuildIncidence enumerates all triangles with the forward (degeneracy-
// oriented) algorithm — O(δm) time — and assembles the per-edge incidence
// lists.
func BuildIncidence(g *graph.Graph) *Incidence {
	return BuildIncidenceFrom(g, order.DegeneracyOrdering(g).Pos)
}

// BuildIncidenceFrom is BuildIncidence over a degeneracy ordering the
// caller already holds: pos[v] is vertex v's position in it, as in
// order.Degeneracy.Pos. The same positions give the same arrays.
func BuildIncidenceFrom(g *graph.Graph, pos []int32) *Incidence {
	n := g.NumVertices()
	m := g.NumEdges()

	// Forward adjacency: for each vertex, its later-ordered neighbors with
	// edge ids, flattened.
	fOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		cnt := int32(0)
		for _, w := range g.Neighbors(int32(v)) {
			if pos[w] > pos[v] {
				cnt++
			}
		}
		fOff[v+1] = fOff[v] + cnt
	}
	fAdj := make([]int32, fOff[n])
	fEid := make([]int32, fOff[n])
	cursor := make([]int32, n)
	copy(cursor, fOff[:n])
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(int32(v))
		eids := g.IncidentEdgeIDs(int32(v))
		for t, w := range nbrs {
			if pos[w] > pos[int32(v)] {
				fAdj[cursor[v]] = w
				fEid[cursor[v]] = eids[t]
				cursor[v]++
			}
		}
	}

	// Pass 1: count triangles per edge. Pass 2: fill with canonical
	// orientation.
	stamp := make([]int32, n)
	stampEid := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	counts := make([]int32, m)
	forEachTriangle(n, fOff, fAdj, fEid, stamp, stampEid, func(u, v, w, euv, euw, evw int32) {
		counts[euv]++
		counts[euw]++
		counts[evw]++
	})
	inc := &Incidence{off: make([]int32, m+1)}
	for e := 0; e < m; e++ {
		inc.off[e+1] = inc.off[e] + counts[e]
	}
	total := inc.off[m]
	inc.coSrc = make([]int32, total)
	inc.coDst = make([]int32, total)
	inc.third = make([]int32, total)
	fill := make([]int32, m)
	copy(fill, inc.off[:m])
	put := func(e, third, coWithSmaller, coWithLarger int32) {
		i := fill[e]
		inc.coSrc[i] = coWithSmaller
		inc.coDst[i] = coWithLarger
		inc.third[i] = third
		fill[e]++
	}
	forEachTriangle(n, fOff, fAdj, fEid, stamp, stampEid, func(u, v, w, euv, euw, evw int32) {
		// Edge euv = {u,v}, apex w: co-edges euw (through u) and evw
		// (through v); orient by vertex id.
		if u < v {
			put(euv, w, euw, evw)
		} else {
			put(euv, w, evw, euw)
		}
		if u < w {
			put(euw, v, euv, evw)
		} else {
			put(euw, v, evw, euv)
		}
		if v < w {
			put(evw, u, euv, euw)
		} else {
			put(evw, u, euw, euv)
		}
	})
	return inc
}

// forEachTriangle enumerates each triangle once as (u,v,w) ordered by
// degeneracy position, reporting the vertices and the three edge ids.
func forEachTriangle(n int, fOff, fAdj, fEid, stamp, stampEid []int32, fn func(u, v, w, euv, euw, evw int32)) {
	for u := 0; u < n; u++ {
		for i := fOff[u]; i < fOff[u+1]; i++ {
			stamp[fAdj[i]] = int32(u)
			stampEid[fAdj[i]] = fEid[i]
		}
		for i := fOff[u]; i < fOff[u+1]; i++ {
			v := fAdj[i]
			euv := fEid[i]
			for j := fOff[v]; j < fOff[v+1]; j++ {
				w := fAdj[j]
				if stamp[w] == int32(u) {
					fn(int32(u), v, w, euv, stampEid[w], fEid[j])
				}
			}
		}
		// No un-stamping needed: stamps carry the pivot id, so stale entries
		// can never match a later pivot.
	}
}

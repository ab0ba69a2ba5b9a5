// Package truss computes edge supports, the truss-based edge ordering of
// [19] (the EBBkC paper) and the associated parameter τ, plus the two
// alternative edge orderings used in the paper's Table VI ablation.
//
// The truss-based edge ordering is the edge analogue of the degeneracy
// ordering: repeatedly remove the edge whose endpoints have the fewest
// common neighbors in the remaining graph. τ is the largest support observed
// at removal time; for every graph τ < δ wherever the graph has at least one
// triangle-free peeling step, and τ ≤ δ−1 in general (Lemma 4.4 of [19]).
package truss

import (
	"sort"

	"github.com/graphmining/hbbmc/internal/graph"
)

// EdgeOrder is a permutation of the edges of a graph.
type EdgeOrder struct {
	// Rank[e] is the position of edge id e in the ordering.
	Rank []int32
	// Order[i] is the edge id at position i.
	Order []int32
}

// Decomposition is the result of the truss peeling.
type Decomposition struct {
	EdgeOrder
	// Tau is the truss-related parameter τ: the maximum, over the peeling,
	// of an edge's support at its removal.
	Tau int
	// Support[e] is the initial support (triangle count) of edge e.
	Support []int32
	// Inc is the triangle incidence structure the peeling was computed
	// from; the edge-oriented enumeration engines reuse it to derive branch
	// universes without adjacency merges.
	Inc *Incidence
}

// CountTriangles returns the number of triangles in g (each counted once).
func CountTriangles(g *graph.Graph) int64 {
	return BuildIncidence(g).Triangles()
}

// Decompose runs the truss peeling and returns the truss-based edge
// ordering, τ, the initial supports and the triangle incidence.
func Decompose(g *graph.Graph) *Decomposition {
	m := g.NumEdges()
	inc := BuildIncidence(g)
	d := &Decomposition{
		EdgeOrder: EdgeOrder{
			Rank:  make([]int32, m),
			Order: make([]int32, 0, m),
		},
		Support: make([]int32, m),
		Inc:     inc,
	}
	for e := 0; e < m; e++ {
		d.Support[e] = inc.Count(int32(e))
	}
	if m == 0 {
		return d
	}
	sup := make([]int32, m)
	copy(sup, d.Support)
	maxSup := int32(0)
	for _, s := range sup {
		if s > maxSup {
			maxSup = s
		}
	}
	// Bucket queue over support values, mirroring the core-peeling layout.
	binStart := make([]int32, maxSup+2)
	for _, s := range sup {
		binStart[s+1]++
	}
	for i := 1; i < len(binStart); i++ {
		binStart[i] += binStart[i-1]
	}
	edges := make([]int32, m) // edges sorted by current support
	pos := make([]int32, m)
	cursor := make([]int32, maxSup+1)
	copy(cursor, binStart[:maxSup+1])
	for e := int32(0); e < int32(m); e++ {
		p := cursor[sup[e]]
		edges[p] = e
		pos[e] = p
		cursor[sup[e]]++
	}
	bin := make([]int32, maxSup+1)
	copy(bin, binStart[:maxSup+1])

	removed := make([]bool, m)
	decrement := func(e int32, processedUpTo int) {
		s := sup[e]
		pe := pos[e]
		ps := bin[s]
		if int(ps) <= processedUpTo {
			ps = int32(processedUpTo + 1)
			bin[s] = ps
		}
		o := edges[ps]
		if o != e {
			edges[ps], edges[pe] = e, o
			pos[e], pos[o] = ps, pe
		}
		bin[s]++
		sup[e]--
	}

	tau := int32(0)
	for i := 0; i < m; i++ {
		e := edges[i]
		if sup[e] > tau {
			tau = sup[e]
		}
		d.Rank[e] = int32(len(d.Order))
		d.Order = append(d.Order, e)
		removed[e] = true
		// Every triangle through e with both co-edges alive loses it.
		inc.ForEach(e, func(e1, e2 int32) {
			if !removed[e1] && !removed[e2] {
				decrement(e1, i)
				decrement(e2, i)
			}
		})
	}
	d.Tau = int(tau)
	return d
}

// DegeneracyEdgeOrder orders edges lexicographically by the degeneracy
// positions of their endpoints (smaller position first, then the other
// endpoint's position). This is the HBBMC-dgn baseline of Table VI.
func DegeneracyEdgeOrder(g *graph.Graph, pos []int32) EdgeOrder {
	return orderEdgesBy(g, func(e int32) (int64, int64) {
		u, v := g.EdgeEndpoints(e)
		pu, pv := int64(pos[u]), int64(pos[v])
		if pu > pv {
			pu, pv = pv, pu
		}
		return pu, pv
	})
}

// MinDegreeEdgeOrder orders edges by the non-decreasing minimum degree of
// their endpoints (an upper bound on the common-neighborhood size). This is
// the HBBMC-mdg baseline of Table VI.
func MinDegreeEdgeOrder(g *graph.Graph) EdgeOrder {
	return orderEdgesBy(g, func(e int32) (int64, int64) {
		u, v := g.EdgeEndpoints(e)
		du, dv := int64(g.Degree(u)), int64(g.Degree(v))
		if du > dv {
			du, dv = dv, du
		}
		return du, dv
	})
}

func orderEdgesBy(g *graph.Graph, key func(e int32) (int64, int64)) EdgeOrder {
	m := g.NumEdges()
	eo := EdgeOrder{
		Rank:  make([]int32, m),
		Order: make([]int32, m),
	}
	for e := range eo.Order {
		eo.Order[e] = int32(e)
	}
	sort.Slice(eo.Order, func(i, j int) bool {
		a1, a2 := key(eo.Order[i])
		b1, b2 := key(eo.Order[j])
		if a1 != b1 {
			return a1 < b1
		}
		if a2 != b2 {
			return a2 < b2
		}
		return eo.Order[i] < eo.Order[j]
	})
	for i, e := range eo.Order {
		eo.Rank[e] = int32(i)
	}
	return eo
}

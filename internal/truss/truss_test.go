package truss

import (
	"math/rand"
	"testing"

	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/order"
)

func complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.MustBuild()
}

func cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.MustBuild()
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.MustBuild()
}

func TestSupportsTriangle(t *testing.T) {
	g := complete(3)
	inc := BuildIncidence(g)
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if s := inc.Count(e); s != 1 {
			t.Errorf("support of edge %d = %d, want 1", e, s)
		}
	}
}

func TestSupportsK5(t *testing.T) {
	g := complete(5)
	inc := BuildIncidence(g)
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if s := inc.Count(e); s != 3 {
			t.Errorf("support of K5 edge %d = %d, want 3", e, s)
		}
	}
}

func TestCountTriangles(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"K3", complete(3), 1},
		{"K4", complete(4), 4},
		{"K5", complete(5), 10},
		{"C6", cycle(6), 0},
		{"empty", graph.NewBuilder(3).MustBuild(), 0},
	}
	for _, c := range cases {
		if got := CountTriangles(c.g); got != c.want {
			t.Errorf("%s: triangles = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDecomposeKnownTau(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"triangle-free", cycle(8), 0},
		{"K3", complete(3), 1},
		{"K5", complete(5), 3},
		{"K7", complete(7), 5},
		{"no edges", graph.NewBuilder(4).MustBuild(), 0},
	}
	for _, c := range cases {
		d := Decompose(c.g)
		if d.Tau != c.want {
			t.Errorf("%s: τ = %d, want %d", c.name, d.Tau, c.want)
		}
	}
}

func TestDecomposeIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 50, 300)
	d := Decompose(g)
	if len(d.Order) != g.NumEdges() {
		t.Fatalf("order covers %d edges, want %d", len(d.Order), g.NumEdges())
	}
	seen := make([]bool, g.NumEdges())
	for i, e := range d.Order {
		if seen[e] {
			t.Fatalf("edge %d repeated", e)
		}
		seen[e] = true
		if d.Rank[e] != int32(i) {
			t.Fatalf("Rank[%d] = %d, want %d", e, d.Rank[e], i)
		}
	}
}

// The defining invariant of the truss ordering: when edge e is removed, its
// support in the remaining graph is at most τ; equivalently the candidate
// bound MaxCandidateSize ≤ τ.
func TestTrussOrderingBoundsCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 25; i++ {
		n := 5 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(6*n))
		d := Decompose(g)
		if got := MaxCandidateSize(g, d.EdgeOrder); got > d.Tau {
			t.Fatalf("iter %d: candidate bound %d exceeds τ=%d", i, got, d.Tau)
		}
	}
}

// τ ≤ δ − 1 on graphs with at least one edge ([19], since the removal-time
// support counts common later neighbors inside a (δ+1)-sized closed
// neighborhood at most).
func TestTauBelowDegeneracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		n := 5 + rng.Intn(60)
		g := randomGraph(rng, n, 2+rng.Intn(6*n))
		if g.NumEdges() == 0 {
			continue
		}
		delta := order.DegeneracyOrdering(g).Value
		tau := Decompose(g).Tau
		if tau >= delta && !(tau == 0 && delta == 0) {
			t.Fatalf("iter %d: τ=%d not below δ=%d", i, tau, delta)
		}
	}
}

func TestAlternativeEdgeOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 40, 200)
	deg := order.DegeneracyOrdering(g)

	for _, tc := range []struct {
		name string
		eo   EdgeOrder
	}{
		{"degeneracy", DegeneracyEdgeOrder(g, deg.Pos)},
		{"mindegree", MinDegreeEdgeOrder(g)},
	} {
		if len(tc.eo.Order) != g.NumEdges() {
			t.Fatalf("%s: order covers %d edges", tc.name, len(tc.eo.Order))
		}
		seen := make([]bool, g.NumEdges())
		for i, e := range tc.eo.Order {
			if seen[e] || tc.eo.Rank[e] != int32(i) {
				t.Fatalf("%s: not a permutation", tc.name)
			}
			seen[e] = true
		}
	}
}

func TestTrussOrderingNeverLooserThanAlternatives(t *testing.T) {
	// The truss ordering minimises the candidate bound by construction; on
	// triangle-rich graphs the alternatives must not beat it.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10; i++ {
		n := 20 + rng.Intn(30)
		g := randomGraph(rng, n, 6*n)
		d := Decompose(g)
		deg := order.DegeneracyOrdering(g)
		tb := MaxCandidateSize(g, d.EdgeOrder)
		db := MaxCandidateSize(g, DegeneracyEdgeOrder(g, deg.Pos))
		mb := MaxCandidateSize(g, MinDegreeEdgeOrder(g))
		if tb > db || tb > mb {
			t.Fatalf("truss bound %d worse than degeneracy %d / mindeg %d", tb, db, mb)
		}
	}
}

func TestMinDegreeOrderSortedByKey(t *testing.T) {
	g := complete(4)
	eo := MinDegreeEdgeOrder(g)
	prev := int64(-1)
	for _, e := range eo.Order {
		u, v := g.EdgeEndpoints(e)
		du, dv := int64(g.Degree(u)), int64(g.Degree(v))
		k := du
		if dv < du {
			k = dv
		}
		if k < prev {
			t.Fatal("min-degree edge order not sorted")
		}
		prev = k
	}
}

// MaxCandidateSize returns, for a given edge order, the largest number of
// common neighbors w of an edge (u,v) such that both (u,w) and (v,w) rank
// after (u,v). For the truss ordering this equals the bound the branching
// engines rely on (≤ τ); for other orderings it measures how loose they are.
func MaxCandidateSize(g *graph.Graph, eo EdgeOrder) int {
	max := 0
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		u, v := g.EdgeEndpoints(e)
		r := eo.Rank[e]
		cnt := 0
		nu, nv := g.Neighbors(u), g.Neighbors(v)
		iu, iv := g.IncidentEdgeIDs(u), g.IncidentEdgeIDs(v)
		i, j := 0, 0
		for i < len(nu) && j < len(nv) {
			switch {
			case nu[i] < nv[j]:
				i++
			case nu[i] > nv[j]:
				j++
			default:
				if eo.Rank[iu[i]] > r && eo.Rank[iv[j]] > r {
					cnt++
				}
				i++
				j++
			}
		}
		if cnt > max {
			max = cnt
		}
	}
	return max
}

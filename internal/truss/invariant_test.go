package truss

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/graphmining/hbbmc/internal/graph"
)

// TestSupportSumEqualsThreeTriangles pins the handshake identity: every
// triangle contributes one unit of support to each of its three edges.
func TestSupportSumEqualsThreeTriangles(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 30; iter++ {
		n := 3 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(6*n))
		var sum int64
		inc := BuildIncidence(g)
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			sum += int64(inc.Count(e))
		}
		if tri := CountTriangles(g); sum != 3*tri {
			t.Fatalf("iter %d: support sum %d != 3·triangles %d", iter, sum, 3*tri)
		}
	}
}

// TestIncidenceEntriesAreConsistent verifies the canonical orientation
// contract: for every entry of edge e=(src,dst), CoSrc passes through src,
// CoDst through dst, and both meet at Third.
func TestIncidenceEntriesAreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g := randomGraph(rng, 40, 300)
	inc := BuildIncidence(g)
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		src, dst := g.EdgeEndpoints(e)
		lo, hi := inc.Range(e)
		for i := lo; i < hi; i++ {
			x := inc.Third(i)
			if x == src || x == dst {
				t.Fatalf("edge %d: apex %d is an endpoint", e, x)
			}
			cs, cd := inc.CoSrc(i), inc.CoDst(i)
			a1, b1 := g.EdgeEndpoints(cs)
			if !(a1 == src && b1 == x || a1 == x && b1 == src) {
				t.Fatalf("edge %d: CoSrc %d is (%d,%d), want {%d,%d}", e, cs, a1, b1, src, x)
			}
			a2, b2 := g.EdgeEndpoints(cd)
			if !(a2 == dst && b2 == x || a2 == x && b2 == dst) {
				t.Fatalf("edge %d: CoDst %d is (%d,%d), want {%d,%d}", e, cd, a2, b2, dst, x)
			}
		}
		if int(inc.Count(e)) != int(hi-lo) {
			t.Fatalf("edge %d: Count %d != range %d", e, inc.Count(e), hi-lo)
		}
	}
}

// TestQuickTrussRankRespectsSupport: along the truss ordering, the support
// at removal never exceeds τ; spot-check via quick-generated graphs.
func TestQuickTrussRankRespectsSupport(t *testing.T) {
	f := func(nRaw uint8, bits []byte) bool {
		n := 3 + int(nRaw%30)
		b := graph.NewBuilder(n)
		idx := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if idx/8 < len(bits) && bits[idx/8]&(1<<(idx%8)) != 0 {
					b.AddEdge(int32(i), int32(j))
				}
				idx++
			}
		}
		g := b.MustBuild()
		d := Decompose(g)
		// MaxCandidateSize is exactly the removal-time support bound.
		return MaxCandidateSize(g, d.EdgeOrder) <= d.Tau
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestEmptyAndTinyGraphs covers the decomposition's degenerate inputs.
func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewBuilder(0).MustBuild(),
		graph.NewBuilder(1).MustBuild(),
		graph.NewBuilder(2).MustBuild(),
	} {
		d := Decompose(g)
		if d.Tau != 0 || len(d.Order) != 0 {
			t.Errorf("degenerate graph: τ=%d order=%d", d.Tau, len(d.Order))
		}
		if BuildIncidence(g).Triangles() != 0 {
			t.Error("degenerate graph has no triangles")
		}
	}
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	d := Decompose(g)
	if d.Tau != 0 || len(d.Order) != 1 {
		t.Errorf("single edge: τ=%d order=%d", d.Tau, len(d.Order))
	}
}

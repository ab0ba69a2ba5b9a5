package reduce

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/graphmining/hbbmc/internal/dataset"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/verify"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.MustBuild()
}

// allCliquesVia reconstructs the complete maximal-clique set from a
// reduction result: rule outputs plus filtered residual cliques.
func allCliquesVia(r *Result) [][]int32 {
	out := append([][]int32(nil), r.Cliques...)
	for _, c := range verify.MaximalCliques(r.Residual) {
		if len(c) == 0 {
			// The empty residual graph reports one empty clique; it is only
			// a real clique when the original graph was empty too.
			if len(r.OrigID) == 0 && r.NumRemoved == 0 {
				out = append(out, nil)
			}
			continue
		}
		mapped := make([]int32, len(c))
		for i, v := range c {
			mapped[i] = r.OrigID[v]
		}
		if r.HasRemovedDominator(mapped) {
			continue
		}
		out = append(out, mapped)
	}
	return out
}

func TestApplyIsolatedVertices(t *testing.T) {
	g := graph.NewBuilder(3).MustBuild()
	r := Apply(g, Options{})
	if r.NumRemoved != 3 || len(r.Cliques) != 3 {
		t.Fatalf("removed=%d cliques=%d, want 3/3", r.NumRemoved, len(r.Cliques))
	}
	if r.Residual.NumVertices() != 0 {
		t.Fatalf("residual should be empty, has %d vertices", r.Residual.NumVertices())
	}
}

func TestApplyPath(t *testing.T) {
	// Path 0-1-2: reduction alone must yield {0,1} and {1,2}.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	r := Apply(g, Options{})
	if d := verify.Diff(r.Cliques, [][]int32{{0, 1}, {1, 2}}); d != "" {
		t.Fatalf("path reduction: %s", d)
	}
	if r.Residual.NumVertices() != 0 {
		t.Fatal("path should reduce away entirely")
	}
}

func TestApplyTriangleSimplicial(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.MustBuild()
	r := Apply(g, Options{})
	if d := verify.Diff(r.Cliques, [][]int32{{0, 1, 2}}); d != "" {
		t.Fatalf("triangle: %s", d)
	}
	if r.Residual.NumVertices() != 0 {
		t.Fatal("triangle should reduce away entirely")
	}
}

func TestApplyDegTwoNonAdjacent(t *testing.T) {
	// Star: 0 connected to 1 and 2 only, 1-2 not adjacent.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.MustBuild()
	r := Apply(g, Options{})
	if d := verify.Diff(allCliquesVia(r), [][]int32{{0, 1}, {0, 2}}); d != "" {
		t.Fatalf("deg-2 non-adjacent: %s", d)
	}
}

func TestRemovedDominatorSuppression(t *testing.T) {
	// Triangle with pendant: 0-1-2 triangle, 3 attached to 2. Reduction at 3
	// (degree 1) outputs {2,3}; reducing vertex 0 (simplicial) outputs
	// {0,1,2}; the residual edge 1-2 must then be suppressed.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	r := Apply(g, Options{})
	got := allCliquesVia(r)
	want := verify.MaximalCliques(g)
	if d := verify.Diff(got, want); d != "" {
		t.Fatalf("triangle+pendant: %s", d)
	}
}

func TestIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomGraph(rng, 20, 50)
	r := Identity(g)
	if r.NumRemoved != 0 || len(r.Cliques) != 0 {
		t.Fatal("identity should remove nothing")
	}
	if r.Residual != g {
		t.Fatal("identity residual should be the input graph")
	}
	if r.HasRemovedDominator([]int32{0}) {
		t.Fatal("identity has no removed dominators")
	}
	for v := int32(0); v < 20; v++ {
		if r.OrigID[v] != v {
			t.Fatal("identity mapping must be identity")
		}
	}
}

func TestApplySoundOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(3*n))
		for _, maxDeg := range []int{2, 5} {
			r := Apply(g, Options{MaxDegree: maxDeg})
			got := allCliquesVia(r)
			want := verify.MaximalCliques(g)
			if d := verify.Diff(got, want); d != "" {
				t.Fatalf("iter %d maxDeg %d (n=%d m=%d): %s", iter, maxDeg, n, g.NumEdges(), d)
			}
		}
	}
}

// TestApplyKeepsInputWhenNothingRemoved: a reduction that removes no
// vertex returns the input graph itself as the residual, with the identity
// mapping, on the stand-ins it leaves whole and on random graphs.
func TestApplyKeepsInputWhenNothingRemoved(t *testing.T) {
	check := func(name string, g *graph.Graph, opts Options) bool {
		r := Apply(g, opts)
		if r.NumRemoved != 0 {
			return false
		}
		if r.Residual != g {
			t.Fatalf("%s: nothing removed, but the residual is a copy of the input graph", name)
		}
		for v, orig := range r.OrigID {
			if orig != int32(v) {
				t.Fatalf("%s: nothing removed, but OrigID[%d] = %d", name, v, orig)
			}
		}
		if r.HasRemovedDominator([]int32{0}) || r.HasRemovedDominator(nil) {
			t.Fatalf("%s: nothing removed, but a removed dominator is reported", name)
		}
		return true
	}
	whole := 0
	for _, spec := range dataset.All() {
		if check(spec.Name, spec.Build(), Options{}) {
			whole++
		}
	}
	if whole == 0 {
		t.Fatal("the reduction removes vertices from every stand-in; the check ran on none")
	}
	rng := rand.New(rand.NewSource(44))
	for iter := 0; iter < 40; iter++ {
		n := 4 + rng.Intn(30)
		check(fmt.Sprintf("random %d", iter), randomGraph(rng, n, 4*n), Options{})
	}
}

func TestApplyReducesTrees(t *testing.T) {
	// Any tree reduces away entirely under degree-1 peeling.
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 20; iter++ {
		n := 2 + rng.Intn(50)
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			b.AddEdge(int32(v), int32(rng.Intn(v)))
		}
		g := b.MustBuild()
		r := Apply(g, Options{})
		if r.Residual.NumVertices() != 0 {
			t.Fatalf("tree left %d residual vertices", r.Residual.NumVertices())
		}
		if len(r.Cliques) != n-1 {
			t.Fatalf("tree with %d vertices must emit %d edges, got %d", n, n-1, len(r.Cliques))
		}
	}
}

func TestApplyKeepsDenseCore(t *testing.T) {
	// K5 with a pendant path: the path reduces, K5 survives when MaxDegree=2
	// (its vertices have degree ≥ 4 and are not considered).
	b := graph.NewBuilder(7)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	g := b.MustBuild()
	r := Apply(g, Options{MaxDegree: 2})
	if r.Residual.NumVertices() != 5 {
		t.Fatalf("K5 core should survive, residual has %d vertices", r.Residual.NumVertices())
	}
	got := allCliquesVia(r)
	if d := verify.Diff(got, verify.MaximalCliques(g)); d != "" {
		t.Fatalf("K5+path: %s", d)
	}
	// With a higher cap the simplicial rule consumes K5 too.
	r2 := Apply(g, Options{MaxDegree: 6})
	if r2.Residual.NumVertices() != 0 {
		t.Fatalf("simplicial rule should consume K5, %d left", r2.Residual.NumVertices())
	}
}

package reduce

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/graphmining/hbbmc/internal/dataset"
	"github.com/graphmining/hbbmc/internal/graph"
)

// TestApplyReachesFixpoint: re-applying the reduction to a residual graph
// must remove nothing further (the queue-driven pass already reached the
// fixpoint).
func TestApplyReachesFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(3*n))
		for _, maxDeg := range []int{2, 4} {
			r1 := Apply(g, Options{MaxDegree: maxDeg})
			r2 := Apply(r1.Residual, Options{MaxDegree: maxDeg})
			if r2.NumRemoved != 0 {
				t.Fatalf("iter %d maxDeg %d: second pass removed %d vertices",
					iter, maxDeg, r2.NumRemoved)
			}
			if len(r2.Cliques) != 0 {
				t.Fatalf("iter %d: second pass emitted %d cliques", iter, len(r2.Cliques))
			}
		}
	}
}

// TestReductionCliquesAreMaximalInOriginal: every clique a rule emits must
// be a maximal clique of the ORIGINAL graph, not merely of some residual.
func TestReductionCliquesAreMaximalInOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(4*n))
		r := Apply(g, Options{MaxDegree: 5})
		for _, c := range r.Cliques {
			if !g.IsClique(c) {
				t.Fatalf("iter %d: emitted set %v is not a clique", iter, c)
			}
			if ext := findExtensionIn(g, c); ext >= 0 {
				t.Fatalf("iter %d: emitted clique %v extendable by %d", iter, c, ext)
			}
		}
	}
}

func findExtensionIn(g *graph.Graph, c []int32) int32 {
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		in := false
		for _, u := range c {
			if u == v {
				in = true
				break
			}
		}
		if in {
			continue
		}
		all := true
		for _, u := range c {
			if !g.HasEdge(v, u) {
				all = false
				break
			}
		}
		if all {
			return v
		}
	}
	return -1
}

// TestResidualMappingIsInjective: the residual relabelling must be a
// bijection onto the surviving vertices, with consistent adjacency.
func TestResidualMappingIsInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := randomGraph(rng, 80, 200)
	r := Apply(g, Options{})
	seen := map[int32]bool{}
	for _, orig := range r.OrigID {
		if seen[orig] {
			t.Fatalf("vertex %d mapped twice", orig)
		}
		seen[orig] = true
	}
	if r.Residual.NumVertices()+r.NumRemoved != g.NumVertices() {
		t.Fatalf("vertex accounting: %d residual + %d removed != %d",
			r.Residual.NumVertices(), r.NumRemoved, g.NumVertices())
	}
	// Residual edges must exist in the original graph.
	for e := 0; e < r.Residual.NumEdges(); e++ {
		u, v := r.Residual.EdgeEndpoints(int32(e))
		if !g.HasEdge(r.OrigID[u], r.OrigID[v]) {
			t.Fatalf("residual edge (%d,%d) missing in original", u, v)
		}
	}
}

// TestResidualMatchesBuilder: the residual built from the relabelled edge
// keys, unsorted, is the graph graph.Builder makes of the same surviving
// edges — same CSR, same edge ids, same fingerprint — on the 16 stand-ins
// and on random graphs.
func TestResidualMatchesBuilder(t *testing.T) {
	check := func(name string, g *graph.Graph, opts Options) {
		r := Apply(g, opts)
		newID := make(map[int32]int32, len(r.OrigID))
		for i, v := range r.OrigID {
			newID[v] = int32(i)
		}
		b := graph.NewBuilder(len(r.OrigID))
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			u, v := g.EdgeEndpoints(e)
			nu, uok := newID[u]
			nv, vok := newID[v]
			if uok && vok {
				b.AddEdge(nu, nv)
			}
		}
		want := b.MustBuild()
		if !r.Residual.Equal(want) || r.Residual.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: residual differs from the Builder's graph of the surviving edges", name)
		}
	}
	for _, spec := range dataset.All() {
		check(spec.Name, spec.Build(), Options{})
	}
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(80)
		check(fmt.Sprintf("random %d", iter), randomGraph(rng, n, rng.Intn(5*n)), Options{MaxDegree: 1 + rng.Intn(5)})
	}
}

package core

// Ablation benchmarks for the engineering decisions DESIGN.md calls out.
// Each benchmark pair runs HBBMC++ with one optimisation disabled so
// `go test -bench=Ablation` quantifies its contribution. Counts are also
// cross-checked, so these double as correctness tests for the ablated
// (pure-paper) code paths.

import (
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
)

// ablationGraph is triangle-rich with planted communities: every ablated
// path (tiny branches, masked candidates, X-domination) is exercised.
func ablationGraph() *graph.Graph {
	return gen.NoisyCliques(4000, 220, 11, 12000, 404)
}

func runAblation(b *testing.B, flag *bool) {
	g := ablationGraph()
	want, _, err := Count(g, Defaults())
	if err != nil {
		b.Fatal(err)
	}
	if flag != nil {
		*flag = true
		defer func() { *flag = false }()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := Count(g, Defaults())
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("ablated run found %d cliques, want %d", got, want)
		}
	}
}

func BenchmarkAblationBaseline(b *testing.B)         { runAblation(b, nil) }
func BenchmarkAblationNoTinyBranch(b *testing.B)     { runAblation(b, &ablateTinyBranch) }
func BenchmarkAblationNoMaskFreeCheck(b *testing.B)  { runAblation(b, &ablateMaskFree) }
func BenchmarkAblationNoMaskDropping(b *testing.B)   { runAblation(b, &ablateMaskDrop) }
func BenchmarkAblationNoXDominationCut(b *testing.B) { runAblation(b, &ablateXDomination) }
func BenchmarkAblationNoWordKernel(b *testing.B)     { runAblation(b, &ablateWordKernel) }

// TestAblatedPathsStillCorrect runs the cross-validation grid with every
// optimisation disabled — the closest configuration to the paper's plain
// pseudo-code.
func TestAblatedPathsStillCorrect(t *testing.T) {
	ablateTinyBranch = true
	ablateMaskFree = true
	ablateMaskDrop = true
	ablateXDomination = true
	ablateWordKernel = true
	defer func() {
		ablateTinyBranch = false
		ablateMaskFree = false
		ablateMaskDrop = false
		ablateXDomination = false
		ablateWordKernel = false
	}()
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		g := gen.NoisyCliques(80, 8, 7, 80, seed)
		want := referenceFor(g)
		for _, algo := range []Algorithm{HBBMC, EBBMC} {
			for _, et := range []int{0, 3} {
				checkAgainstReference(t, "ablated", g, Options{Algorithm: algo, ET: et, GR: seed%2 == 0}, want)
			}
		}
	}
}

package core

import (
	"context"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
)

// allocGraph is a planted-clique graph whose 24-cliques give edge branches
// enough common neighbours to share rows in anchor groups.
func allocGraph() *graph.Graph { return gen.NoisyCliques(300, 12, 24, 600, 11) }

// warmEngine builds a session for opts over g and returns an engine ready
// to run its branches.
func warmEngine(t *testing.T, g *graph.Graph, opts Options) (*Session, *engine) {
	t.Helper()
	s, err := NewSession(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	rc := newRunControl(context.Background(), s.opts)
	e := newEngine(s.res, s.red, s.opts, &Stats{}, nil, rc)
	configureEngine(e, s.opts)
	e.eo, e.inc = s.eo, s.inc
	return s, e
}

// TestRecursionAllocFree pins the warm enumeration hot path — the PR-4
// claim the //hbbmc:noalloc annotations encode — at exactly zero heap
// allocations per full run, for both the ordered vertex recursion and the
// hybrid edge-driven recursion with early termination enabled. The planted
// graph's edge branches all fit one word, so HBBMC_ET3 runs the one-word
// kernel and HBBMC_ET3_generic the bitset path it replaces.
// HBBMC_ET3_two_word runs universes of 65–128 members on the two-word
// kernel, HBBMC_ET3_masked masked universes of both widths on the word
// kernels (TestWordKernelBoundary's graph), and HBBMC_ET3_grouped the
// whole edge ordering as one chunk on a graph whose anchor groups share
// rows (TestAnchorGroupShapes).
func TestRecursionAllocFree(t *testing.T) {
	planted := gen.NoisyCliques(300, 20, 8, 600, 11)
	twoWord := func(sizes map[int]bool, _ [2]int) bool {
		for k := range sizes {
			if k > 64 && k <= maxWordUniverse {
				return true
			}
		}
		return false
	}
	masked := func(_ map[int]bool, masked [2]int) bool { return masked[0] > 0 && masked[1] > 0 }
	cases := []struct {
		name    string
		g       *graph.Graph
		opts    Options
		ablate  *bool
		grouped bool
		// shape, when set, is the branch shape (branchShapes) g must reach.
		shape func(map[int]bool, [2]int) bool
	}{
		{"BKDegen", planted, Options{Algorithm: BKDegen}, nil, false, nil},
		{"HBBMC_ET3", planted, Options{Algorithm: HBBMC, ET: 3}, nil, false, nil},
		{"HBBMC_ET3_generic", planted, Options{Algorithm: HBBMC, ET: 3}, &ablateWordKernel, false, nil},
		{"HBBMC_ET3_two_word", gen.NoisyCliques(150, 1, 67, 100, 11), Options{Algorithm: HBBMC, ET: 3}, nil, false, twoWord},
		{"HBBMC_ET3_masked", kernelBoundaryGraph(4), Options{Algorithm: HBBMC, ET: 3}, nil, false, masked},
		{"EBBMC", planted, Options{Algorithm: EBBMC}, nil, false, nil},
		{"HBBMC_ET3_grouped", allocGraph(), Options{Algorithm: HBBMC, ET: 3}, nil, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.ablate != nil {
				*tc.ablate = true
				defer func() { *tc.ablate = false }()
			}
			s, e := warmEngine(t, tc.g, tc.opts)
			if tc.shape != nil {
				if sizes, masked := branchShapes(s); !tc.shape(sizes, masked) {
					t.Fatalf("%s: the graph does not reach the branch shape the case is for", tc.name)
				}
			}
			run := func() {
				switch {
				case tc.grouped:
					e.runEdgeChunk(nil, 0, len(s.eo.Order))
					e.runIsolatedVertices()
				case tc.opts.Algorithm == EBBMC || tc.opts.Algorithm == HBBMC:
					for _, eid := range s.eo.Order {
						e.runEdgeBranch(eid)
					}
					e.runIsolatedVertices()
				default:
					for p := range s.vertOrd {
						e.runVertexBranch(s.vertOrd, s.vertPos, p)
					}
				}
			}
			run() // warm: grow every buffer to its high-water mark
			if got := testing.AllocsPerRun(5, run); got != 0 {
				t.Errorf("warm %s enumeration: %v allocs per run, want 0", tc.name, got)
			}
		})
	}
}

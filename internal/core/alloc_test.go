package core

import (
	"context"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
)

// warmEngine builds a session for opts over a planted-clique graph and
// returns an engine that has already completed one full enumeration, so
// every lazily grown buffer (universe rows, arenas, scratch slices) sits at
// its high-water mark.
func warmEngine(t *testing.T, opts Options) (*Session, *engine) {
	t.Helper()
	g := gen.NoisyCliques(300, 20, 8, 600, 11)
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
func TestRecursionAllocFree(t *testing.T) {
	cases := []struct {
		name   string
		opts   Options
		ablate *bool
	}{
		{"BKDegen", Options{Algorithm: BKDegen}, nil},
		{"HBBMC_ET3", Options{Algorithm: HBBMC, ET: 3}, nil},
		{"HBBMC_ET3_generic", Options{Algorithm: HBBMC, ET: 3}, &ablateWordKernel},
		{"EBBMC", Options{Algorithm: EBBMC}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.ablate != nil {
				*tc.ablate = true
				defer func() { *tc.ablate = false }()
			}
			s, e := warmEngine(t, tc.opts)
			run := func() {
				switch tc.opts.Algorithm {
				case EBBMC, HBBMC:
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

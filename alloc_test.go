package hbbmc_test

import (
	"context"
	"testing"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/dataset"
)

// TestWarmSessionCountAllocConstant gates the allocation-free-recursion
// claim at the public surface: a warm Session.Count pays a small constant
// number of allocations for per-query setup (engine, arenas, Stats) and
// nothing per branch or per clique. The test measures warm queries on two
// stand-in datasets whose enumerated work differs by an order of magnitude
// and requires the per-query allocation count to be (a) under an absolute
// ceiling and (b) essentially identical across the two — if allocations
// scaled with branches or cliques, the larger dataset would blow both.
func TestWarmSessionCountAllocConstant(t *testing.T) {
	// Per-query setup in the sequential driver: runControl, baseStats, the
	// engine with its arenas and universe rows, plus lazy scratch growth up
	// to the largest universe and anchor group the run sees (the growth-step
	// count varies a little with the graph's universe-size profile). 150–210
	// observed; the ceiling has headroom for toolchain drift but fails loudly
	// on per-clique costs — both graphs enumerate thousands of cliques per
	// query.
	const allocCeiling = 256
	const skew = 64 // allowed cross-dataset difference in setup allocs

	measure := func(name string) float64 {
		spec, ok := dataset.ByName(name)
		if !ok {
			t.Fatalf("unknown dataset %s", name)
		}
		g := spec.Build()
		sess, err := hbbmc.NewSession(g, hbbmc.Options{Algorithm: hbbmc.HBBMC, ET: 3, GR: true})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, _, err := sess.Count(ctx); err != nil { // warm the session caches
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, _, err := sess.Count(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}

	small := measure("NA")
	large := measure("YO")
	t.Logf("warm Session.Count allocations: NA=%.0f YO=%.0f", small, large)
	if small > allocCeiling || large > allocCeiling {
		t.Errorf("warm Session.Count allocates NA=%.0f YO=%.0f, ceiling %d", small, large, allocCeiling)
	}
	if diff := large - small; diff > skew || diff < -skew {
		t.Errorf("per-query allocations scale with enumerated work: NA=%.0f YO=%.0f", small, large)
	}
}

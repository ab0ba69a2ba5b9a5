package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/verify"
)

// withProcs raises GOMAXPROCS to n for the duration of the test, so the
// multi-worker scheduler paths are exercised even on single-core CI
// machines (EnumerateParallel clamps workers to GOMAXPROCS).
func withProcs(t *testing.T, n int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(301))
	for iter := 0; iter < 30; iter++ {
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(5*n))
		want := referenceFor(g)
		for _, algo := range []Algorithm{BKDegen, BKRcd, BKFac, BKRef, BKDegree, EBBMC, HBBMC} {
			for _, workers := range []int{2, 4} {
				opts := Options{Algorithm: algo, ET: 3, GR: iter%2 == 0}
				var got [][]int32
				stats, err := EnumerateParallel(g, opts, workers, func(c []int32) {
					got = append(got, append([]int32(nil), c...))
				})
				if err != nil {
					t.Fatalf("iter %d %v w=%d: %v", iter, algo, workers, err)
				}
				label := fmt.Sprintf("iter%d/%v/w%d", iter, algo, workers)
				if d := verify.Diff(got, want); d != "" {
					t.Fatalf("%s: %s", label, d)
				}
				if stats.Cliques != int64(len(got)) {
					t.Fatalf("%s: stats.Cliques=%d, emitted %d", label, stats.Cliques, len(got))
				}
			}
		}
	}
}

func TestParallelFallsBackForWholeGraph(t *testing.T) {
	g := gen.Complete(6)
	n, _, err := countParallel(g, Options{Algorithm: BKPivot}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("K6 must have 1 maximal clique, got %d", n)
	}
}

func TestParallelDeepSwitchRunsParallel(t *testing.T) {
	withProcs(t, 2)
	g := gen.NoisyCliques(60, 6, 7, 50, 5)
	for _, depth := range []int{2, 3} {
		opts := Options{Algorithm: HBBMC, SwitchDepth: depth, ET: 3}
		a, ps, err := countParallel(g, opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ps.ParallelFallback != "" {
			t.Fatalf("d=%d fell back: %q", depth, ps.ParallelFallback)
		}
		if ps.Workers != 2 {
			t.Fatalf("d=%d ran %d workers, want 2", depth, ps.Workers)
		}
		b, _, err := Count(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("d=%d mismatch: parallel %d vs sequential %d", depth, a, b)
		}
	}
}

// TestParallelWorkerCountEquivalence is the cross-worker-count grid: every
// parallelisable algorithm (including deep-switch HBBMC) must produce the
// exact clique set of the sequential driver at 1, 2 and 8 workers.
func TestParallelWorkerCountEquivalence(t *testing.T) {
	withProcs(t, 8)
	g := gen.NoisyCliques(300, 24, 9, 700, 42)
	configs := []struct {
		name string
		opts Options
	}{
		{"BKRef", Options{Algorithm: BKRef}},
		{"BKDegen", Options{Algorithm: BKDegen}},
		{"BKDegree", Options{Algorithm: BKDegree}},
		{"BKRcd", Options{Algorithm: BKRcd}},
		{"BKFac", Options{Algorithm: BKFac}},
		{"EBBMC", Options{Algorithm: EBBMC, ET: 3}},
		{"HBBMC_d1", Options{Algorithm: HBBMC, ET: 3, GR: true}},
		{"HBBMC_d2", Options{Algorithm: HBBMC, SwitchDepth: 2, ET: 3, GR: true}},
		{"HBBMC_d3", Options{Algorithm: HBBMC, SwitchDepth: 3, ET: 3}},
	}
	for _, cfg := range configs {
		want, _, err := Collect(g, cfg.opts)
		if err != nil {
			t.Fatalf("%s sequential: %v", cfg.name, err)
		}
		for _, workers := range []int{1, 2, 8} {
			var got [][]int32
			stats, err := EnumerateParallel(g, cfg.opts, workers, func(c []int32) {
				got = append(got, append([]int32(nil), c...))
			})
			if err != nil {
				t.Fatalf("%s w=%d: %v", cfg.name, workers, err)
			}
			if d := verify.Diff(got, want); d != "" {
				t.Fatalf("%s w=%d: %s", cfg.name, workers, d)
			}
			if stats.Cliques != int64(len(want)) {
				t.Fatalf("%s w=%d: stats.Cliques=%d, want %d", cfg.name, workers, stats.Cliques, len(want))
			}
		}
	}
}

func TestParallelStatsObservability(t *testing.T) {
	withProcs(t, 2)
	g := gen.NoisyCliques(120, 10, 8, 200, 9)

	// Whole-graph algorithms report why they fell back.
	stats, err := EnumerateParallel(g, Options{Algorithm: BKPivot}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParallelFallback == "" || stats.Workers != 1 {
		t.Fatalf("BKPivot: Workers=%d ParallelFallback=%q, want sequential fallback", stats.Workers, stats.ParallelFallback)
	}

	// A single-worker request is a recorded fallback, not a silent one.
	stats, err = EnumerateParallel(g, Defaults(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParallelFallback == "" || stats.Workers != 1 {
		t.Fatalf("w=1: Workers=%d ParallelFallback=%q", stats.Workers, stats.ParallelFallback)
	}

	// Absurd worker counts are clamped to GOMAXPROCS — observably.
	stats, err = EnumerateParallel(g, Defaults(), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if max := runtime.GOMAXPROCS(0); stats.Workers != max {
		t.Fatalf("w=1<<20: Workers=%d, want clamp to %d", stats.Workers, max)
	}

	// Options.Workers supplies the default when the argument is ≤ 0.
	opts := Defaults()
	opts.Workers = 2
	stats, err = EnumerateParallel(g, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 2 {
		t.Fatalf("Options.Workers=2: ran %d workers", stats.Workers)
	}

	// The sequential driver reports a single worker.
	_, sstats, err := Count(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if sstats.Workers != 1 || sstats.ParallelFallback != "" {
		t.Fatalf("sequential: Workers=%d ParallelFallback=%q", sstats.Workers, sstats.ParallelFallback)
	}
}

// TestParallelEmitNeverConcurrent hammers the batched emit path with many
// workers; run under -race (as CI does) it also exercises the batcher/sink
// synchronisation.
func TestParallelEmitNeverConcurrent(t *testing.T) {
	withProcs(t, 8)
	g := gen.NoisyCliques(400, 40, 8, 900, 77)
	opts := Defaults()
	var inEmit atomic.Int32
	var emitted int64
	stats, err := EnumerateParallel(g, opts, 8, func(c []int32) {
		if n := inEmit.Add(1); n != 1 {
			t.Errorf("emit entered concurrently (%d active)", n)
		}
		if len(c) == 0 {
			t.Error("empty clique emitted")
		}
		emitted++
		inEmit.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cliques != emitted {
		t.Fatalf("stats.Cliques=%d, emitted %d", stats.Cliques, emitted)
	}
	if stats.Workers > 1 && stats.EmitBatches == 0 {
		t.Fatal("parallel emit run recorded no batches")
	}
}

func TestParallelStatsMerged(t *testing.T) {
	withProcs(t, 4)
	g := gen.NoisyCliques(200, 20, 9, 400, 6)
	_, ps, err := countParallel(g, Options{Algorithm: HBBMC, ET: 3, GR: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, ss, err := Count(g, Options{Algorithm: HBBMC, ET: 3, GR: true})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Cliques != ss.Cliques {
		t.Fatalf("cliques: parallel %d vs sequential %d", ps.Cliques, ss.Cliques)
	}
	if ps.Calls != ss.Calls {
		t.Fatalf("calls: parallel %d vs sequential %d", ps.Calls, ss.Calls)
	}
	if ps.TopBranches != ss.TopBranches {
		t.Fatalf("branches: parallel %d vs sequential %d", ps.TopBranches, ss.TopBranches)
	}
	if ps.MaxCliqueSize != ss.MaxCliqueSize {
		t.Fatalf("ω: parallel %d vs sequential %d", ps.MaxCliqueSize, ss.MaxCliqueSize)
	}
}

func TestParallelNilEmit(t *testing.T) {
	withProcs(t, 3)
	g := gen.ER(300, 1500, 7)
	n, _, err := countParallel(g, Defaults(), 3)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Count(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if n != m {
		t.Fatalf("nil-emit parallel count %d != sequential %d", n, m)
	}
}

func countParallel(g *graph.Graph, opts Options, workers int) (int64, *Stats, error) {
	stats, err := EnumerateParallel(g, opts, workers, nil)
	if err != nil {
		return 0, nil, err
	}
	return stats.Cliques, stats, nil
}

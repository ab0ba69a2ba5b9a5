package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/verify"
)

// workloadAlgorithms covers every top-level branch shape the workload
// queries dispatch on: whole-graph (BK, BKPivot), vertex-ordered (BKDegen,
// BKDegree) and edge-ordered (EBBMC, HBBMC).
var workloadAlgorithms = []Algorithm{BK, BKPivot, BKDegen, BKDegree, EBBMC, HBBMC}

var workloadWorkers = []int{1, 2, 8}

// omega returns the maximum clique size of the reference enumeration.
func omega(ref [][]int32) int {
	best := 0
	for _, c := range ref {
		if len(c) > best {
			best = len(c)
		}
	}
	return best
}

// topKOracle sorts the full reference enumeration under the query's total
// order (size descending, then lexicographically ascending on the sorted
// vertices) and keeps the first k.
func topKOracle(ref [][]int32, k int) [][]int32 {
	sorted := make([][]int32, 0, len(ref))
	for _, c := range ref {
		cc := append([]int32(nil), c...)
		slices.Sort(cc)
		sorted = append(sorted, cc)
	}
	slices.SortFunc(sorted, func(a, b []int32) int {
		switch {
		case cliqueLess(a, b):
			return -1
		case cliqueLess(b, a):
			return 1
		}
		return 0
	})
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

// bruteForceKCliques counts the k-vertex cliques of g by extending
// ascending vertex combinations, each candidate checked against every
// chosen member.
func bruteForceKCliques(g *graph.Graph, k int) int64 {
	n := int32(g.NumVertices())
	cur := make([]int32, 0, k)
	var rec func(next int32) int64
	rec = func(next int32) int64 {
		if len(cur) == k {
			return 1
		}
		var total int64
		for v := next; v < n; v++ {
			ok := true
			for _, u := range cur {
				if !g.HasEdge(u, v) {
					ok = false
					break
				}
			}
			if ok {
				cur = append(cur, v)
				total += rec(v + 1)
				cur = cur[:len(cur)-1]
			}
		}
		return total
	}
	if k == 0 {
		return 1
	}
	return rec(0)
}

func checkMaxClique(t *testing.T, label string, g *graph.Graph, s *Session, want int) {
	t.Helper()
	for _, w := range workloadWorkers {
		clique, stats, err := s.MaxClique(context.Background(), QueryOptions{Workers: w})
		if err != nil {
			t.Fatalf("%s/w=%d: %v", label, w, err)
		}
		if len(clique) != want {
			t.Fatalf("%s/w=%d: |clique|=%d, want ω=%d (witness %v)", label, w, len(clique), want, clique)
		}
		if want > 0 && !g.IsClique(clique) {
			t.Fatalf("%s/w=%d: witness %v is not a clique of the input graph", label, w, clique)
		}
		if stats.MaxCliqueSize != want {
			t.Fatalf("%s/w=%d: stats.MaxCliqueSize=%d, want %d", label, w, stats.MaxCliqueSize, want)
		}
		if want > 0 && stats.IncumbentUpdates == 0 {
			t.Fatalf("%s/w=%d: no incumbent updates despite ω=%d", label, w, want)
		}
	}
}

func TestMaxCliqueOnFixedShapes(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"empty":    graph.NewBuilder(0).MustBuild(),
		"isolated": graph.NewBuilder(4).MustBuild(),
		"edge":     gen.Path(2),
		"path6":    gen.Path(6),
		"cycle7":   gen.Cycle(7),
		"star8":    gen.Star(8),
		"K6":       gen.Complete(6),
		"mm3":      gen.MoonMoser(3),
	}
	for name, g := range shapes {
		want := omega(verify.MaximalCliques(g))
		for _, algo := range workloadAlgorithms {
			for _, gr := range []bool{false, true} {
				s, err := NewSession(g, Options{Algorithm: algo, GR: gr})
				if err != nil {
					t.Fatal(err)
				}
				checkMaxClique(t, fmt.Sprintf("%s/%v/gr=%v", name, algo, gr), g, s, want)
			}
		}
	}
}

func TestMaxCliqueOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for iter := 0; iter < 25; iter++ {
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(5*n))
		want := omega(verify.MaximalCliques(g))
		for _, algo := range workloadAlgorithms {
			s, err := NewSession(g, Options{Algorithm: algo, GR: iter%2 == 0, ET: 3})
			if err != nil {
				t.Fatal(err)
			}
			checkMaxClique(t, fmt.Sprintf("iter%d/%v", iter, algo), g, s, want)
		}
	}
}

func TestMaxCliqueBnBCounters(t *testing.T) {
	g := gen.NoisyCliques(120, 12, 7, 200, 13)
	s, err := NewSession(g, Options{Algorithm: HBBMC})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := s.MaxClique(context.Background(), QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// On a clique-planted graph the incumbent seeds may already reach ω, in
	// which case every branch is cut before the recursion even starts — the
	// search does *some* bounded work either way.
	if stats.BnBCalls+stats.BnBPrunes == 0 {
		t.Error("BnB counters should be populated")
	}
	if stats.BnBPrunes == 0 {
		t.Error("a clique-planted graph should trigger bound prunes")
	}
	if stats.Workers != 1 {
		t.Errorf("sequential query reported %d workers", stats.Workers)
	}
}

func TestTopKMatchesSortedEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for iter := 0; iter < 15; iter++ {
		n := 5 + rng.Intn(35)
		g := randomGraph(rng, n, rng.Intn(5*n))
		ref := verify.MaximalCliques(g)
		for _, algo := range workloadAlgorithms {
			s, err := NewSession(g, Options{Algorithm: algo, GR: iter%2 == 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, 7, len(ref) + 5} {
				want := topKOracle(ref, k)
				for _, w := range workloadWorkers {
					got, stats, err := s.TopK(context.Background(), k, QueryOptions{Workers: w})
					if err != nil {
						t.Fatalf("iter%d/%v/k=%d/w=%d: %v", iter, algo, k, w, err)
					}
					if !slices.EqualFunc(got, want, slices.Equal) {
						t.Fatalf("iter%d/%v/k=%d/w=%d:\n got %v\nwant %v", iter, algo, k, w, got, want)
					}
					if stats.Cliques != int64(len(ref)) {
						t.Fatalf("iter%d/%v/k=%d/w=%d: enumerated %d cliques, want %d",
							iter, algo, k, w, stats.Cliques, len(ref))
					}
				}
			}
		}
	}
}

func TestTopKIgnoresSessionCliqueBudget(t *testing.T) {
	// A session-level MaxCliques budget must not truncate the enumeration
	// behind a top-k query: the result would silently miss the true top-k.
	g := gen.NoisyCliques(80, 10, 6, 100, 17)
	s, err := NewSession(g, Options{Algorithm: HBBMC, MaxCliques: 2})
	if err != nil {
		t.Fatal(err)
	}
	total, _, err := s.CountWith(context.Background(), QueryOptions{MaxCliques: NoCliqueLimit})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := s.TopK(context.Background(), 3, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cliques != total {
		t.Fatalf("TopK enumerated %d cliques, want the full %d despite the session budget", stats.Cliques, total)
	}
	if len(got) != 3 {
		t.Fatalf("TopK returned %d cliques, want 3", len(got))
	}
}

func TestTopKAccumThreshold(t *testing.T) {
	acc := &topKAccum{k: 2}
	if acc.threshold() != 0 {
		t.Fatalf("empty accumulator threshold = %d, want 0", acc.threshold())
	}
	acc.visit([]int32{1, 2, 3})
	acc.visit([]int32{4, 5})
	if acc.threshold() != 2 {
		t.Fatalf("threshold = %d, want 2 (worst kept clique)", acc.threshold())
	}
	// A clique below the threshold is rejected on length alone...
	acc.visit([]int32{9})
	if acc.rejected != 1 {
		t.Fatalf("rejected = %d, want 1", acc.rejected)
	}
	// ...and a larger one evicts the worst entry and tightens the bound.
	acc.visit([]int32{6, 7, 8, 9})
	if acc.threshold() != 3 {
		t.Fatalf("threshold = %d, want 3 after eviction", acc.threshold())
	}
	got := acc.sorted()
	want := [][]int32{{6, 7, 8, 9}, {1, 2, 3}}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("sorted() = %v, want %v", got, want)
	}
}

func TestCountKCliquesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for iter := 0; iter < 15; iter++ {
		n := 1 + rng.Intn(25)
		g := randomGraph(rng, n, rng.Intn(5*n))
		for _, algo := range workloadAlgorithms {
			// GR on odd iterations exercises the source-graph fallback basis
			// whenever the reduction removes vertices.
			s, err := NewSession(g, Options{Algorithm: algo, GR: iter%2 == 1})
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 5; k++ {
				want := bruteForceKCliques(g, k)
				for _, w := range workloadWorkers {
					got, stats, err := s.CountKCliques(context.Background(), k, QueryOptions{Workers: w})
					if err != nil {
						t.Fatalf("iter%d/%v/k=%d/w=%d: %v", iter, algo, k, w, err)
					}
					if got != want {
						t.Fatalf("iter%d/%v/k=%d/w=%d: count=%d, want %d", iter, algo, k, w, got, want)
					}
					if stats.KCliques != want {
						t.Fatalf("iter%d/%v/k=%d/w=%d: stats.KCliques=%d, want %d",
							iter, algo, k, w, stats.KCliques, want)
					}
				}
			}
		}
	}
}

func TestCountKCliquesKnownCounts(t *testing.T) {
	// MoonMoser(p) is the complete p-partite graph with parts of size 3: a
	// j-clique picks j parts and one vertex from each, so the count is
	// C(p,j) * 3^j.
	mm := gen.MoonMoser(3)
	s, err := NewSession(mm, Options{Algorithm: HBBMC})
	if err != nil {
		t.Fatal(err)
	}
	wants := map[int]int64{1: 9, 2: 27, 3: 27, 4: 0}
	for k, want := range wants {
		got, _, err := s.CountKCliques(context.Background(), k, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("MoonMoser(3) k=%d: count=%d, want %d", k, got, want)
		}
	}
	// K6 has C(6,k) k-cliques.
	s6, err := NewSession(gen.Complete(6), Options{Algorithm: EBBMC})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int]int64{3: 20, 4: 15, 5: 6, 6: 1, 7: 0} {
		got, _, err := s6.CountKCliques(context.Background(), k, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("K6 k=%d: count=%d, want %d", k, got, want)
		}
	}
}

func TestWorkloadQueryValidation(t *testing.T) {
	s, err := NewSession(gen.Complete(4), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := s.TopK(ctx, 0, QueryOptions{}); err == nil {
		t.Error("TopK(0) should be rejected")
	}
	if _, _, err := s.CountKCliques(ctx, -1, QueryOptions{}); err == nil {
		t.Error("CountKCliques(-1) should be rejected")
	}
	rangeQ := QueryOptions{BranchLo: 0, BranchHi: 1}
	if _, _, err := s.MaxClique(ctx, rangeQ); err == nil {
		t.Error("MaxClique with a branch range should be rejected")
	}
	if _, _, err := s.TopK(ctx, 1, rangeQ); err == nil {
		t.Error("TopK with a branch range should be rejected")
	}
	if _, _, err := s.CountKCliques(ctx, 3, rangeQ); err == nil {
		t.Error("CountKCliques with a branch range should be rejected")
	}
}

// TestCancellationEveryQueryType cancels every query type through the one
// top-level driver, at one and two workers, on an edge-ordered and a
// vertex-ordered session. A context cancelled before the call must yield
// non-nil Stats, an error wrapping context.Canceled and no leftover
// goroutine; partial answers must stay sound. At one worker, an enumeration
// whose first visitor call cancels must stop at the next branch boundary:
// what it delivers after the cancel fits in the unit (residue or single
// branch) it was in.
func TestCancellationEveryQueryType(t *testing.T) {
	withProcs(t, 2)
	g := gen.NoisyCliques(300, 20, 8, 600, 11)
	const k = 4
	for _, cfg := range []Options{
		{Algorithm: HBBMC, ET: 3, GR: true},
		{Algorithm: HBBMC, ET: 3},
		{Algorithm: BKDegen, ET: 3, GR: true},
		{Algorithm: BKDegen, ET: 3},
	} {
		algo := fmt.Sprintf("%v/gr=%v", cfg.Algorithm, cfg.GR)
		s, err := NewSession(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fullK, _, err := s.CountKCliques(context.Background(), k, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			q := QueryOptions{Workers: workers}
			queries := []struct {
				name string
				run  func(ctx context.Context) (*Stats, error)
			}{
				{"Enumerate", func(ctx context.Context) (*Stats, error) {
					return s.EnumerateWith(ctx, q, func([]int32) bool { return true })
				}},
				{"Count", func(ctx context.Context) (*Stats, error) {
					_, stats, err := s.CountWith(ctx, q)
					return stats, err
				}},
				{"TopK", func(ctx context.Context) (*Stats, error) {
					_, stats, err := s.TopK(ctx, 5, q)
					return stats, err
				}},
				{"MaxClique", func(ctx context.Context) (*Stats, error) {
					witness, stats, err := s.MaxClique(ctx, q)
					if !g.IsClique(witness) {
						t.Errorf("%s/w%d: MaxClique witness %v is not a clique", algo, workers, witness)
					}
					return stats, err
				}},
				{"CountKCliques", func(ctx context.Context) (*Stats, error) {
					n, stats, err := s.CountKCliques(ctx, k, q)
					if n > fullK {
						t.Errorf("%s/w%d: partial %d-clique count %d exceeds the full %d", algo, workers, k, n, fullK)
					}
					return stats, err
				}},
			}
			for _, query := range queries {
				label := fmt.Sprintf("%s/w%d/%s", algo, workers, query.name)
				goroutines := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				stats, err := query.run(ctx)
				if stats == nil || !errors.Is(err, context.Canceled) {
					t.Errorf("%s: stats=%v err=%v, want non-nil stats and context.Canceled", label, stats, err)
				}
				waitGoroutines(t, label, goroutines)
			}
		}

		// Per-unit clique counts from a one-worker hooked count: the
		// residue call, then one call per branch.
		largest := int64(0)
		if _, _, err := s.CountWith(context.Background(), QueryOptions{Workers: 1,
			BranchDone: func(_, _ int, cliques int64, _ int) { largest = max(largest, cliques) },
		}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		delivered := int64(0)
		stats, err := s.EnumerateWith(ctx, QueryOptions{Workers: 1}, func([]int32) bool {
			cancel()
			delivered++
			return true
		})
		cancel()
		if stats == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancel from the visitor: stats=%v err=%v", algo, stats, err)
		}
		if delivered > largest || stats.Cliques != delivered {
			t.Fatalf("%s: %d cliques delivered (stats %d) after a cancel in the first visitor call; the largest unit holds %d",
				algo, delivered, stats.Cliques, largest)
		}
	}
}

// waitGoroutines fails the test unless the goroutine count drops back to
// want; a driver joins its workers before returning, so only unrelated
// runtime goroutines may take a moment to exit.
func waitGoroutines(t *testing.T, label string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines after the call, %d before", label, runtime.NumGoroutine(), want)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

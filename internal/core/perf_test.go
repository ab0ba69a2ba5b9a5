package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/reduce"
)

// TestPairwiseCheaperNoOverflow is the regression test for the break-even
// estimate of setUniverse: rowCount·universe·8 overflows 32-bit arithmetic
// already at ~16k-vertex universes (16500² · 8 ≈ 2.2·10⁹ > MaxInt32), and a
// wrapped negative product would pick the pairwise strategy on exactly the
// hub branches where it is quadratically more expensive. The estimate must
// be computed in int64.
func TestPairwiseCheaperNoOverflow(t *testing.T) {
	// 16500²·8 wraps negative in int32; any positive degree sum then
	// looks larger, flipping the decision.
	rowCount, universe := 16500, 16500
	degSum := int64(100_000)
	if got := int64(rowCount) * int64(universe) * 8; got <= math.MaxInt32 {
		t.Fatalf("test vector too small to overflow int32: %d", got)
	}
	if pairwiseCheaper(rowCount, universe, degSum) {
		t.Fatal("pairwise strategy chosen although its estimated cost exceeds the degree sum")
	}
	// Sanity in the small regime: a degree sum far above the pairwise
	// estimate must pick pairwise.
	if !pairwiseCheaper(4, 8, 10_000) {
		t.Fatal("pairwise strategy rejected although the scan estimate is larger")
	}
	// And at 32-bit scale with a genuinely enormous degree sum the pairwise
	// side must win again.
	if !pairwiseCheaper(rowCount, universe, math.MaxInt64/2) {
		t.Fatal("pairwise strategy rejected on a huge degree sum")
	}
}

// TestLocalEpochMembership exercises the epoch-stamped residual→local map
// across universe installs: stale entries from an earlier universe must
// read as absent without any clearing pass.
func TestLocalEpochMembership(t *testing.T) {
	g := gen.Path(8) // 0-1-2-...-7
	e := newEngine(g, reduce.Identity(g), Options{}, &Stats{}, nil, newRunControl(context.Background(), Options{}))
	e.installUniverse([]int32{1, 3, 5}, -1, 0)
	for v, want := range map[int32]int32{1: 0, 3: 1, 5: 2, 0: -1, 2: -1, 7: -1} {
		if got := e.localOf(v); got != want {
			t.Fatalf("localOf(%d) = %d, want %d", v, got, want)
		}
	}
	e.installUniverse([]int32{2, 5}, -1, 0)
	for v, want := range map[int32]int32{2: 0, 5: 1, 1: -1, 3: -1} {
		if got := e.localOf(v); got != want {
			t.Fatalf("after reinstall: localOf(%d) = %d, want %d", v, got, want)
		}
	}
	// The membership bitmap must track the same story.
	for v, want := range map[int]bool{2: true, 5: true, 1: false, 3: false} {
		if got := e.univ.Has(v); got != want {
			t.Fatalf("univ.Has(%d) = %v, want %v", v, got, want)
		}
	}
	// Epoch wrap: a full uint32 cycle must not resurrect stale entries.
	e.localEpoch = ^uint32(0)
	e.installUniverse([]int32{4}, -1, 0)
	if e.localEpoch == 0 {
		t.Fatal("epoch wrap must skip the zero stamp")
	}
	if got := e.localOf(4); got != 0 {
		t.Fatalf("localOf(4) after wrap = %d, want 0", got)
	}
	if got := e.localOf(2); got != -1 {
		t.Fatalf("stale localOf(2) after wrap = %d, want -1", got)
	}
}

// TestWorkQueueRampUpCoversEveryItemOnce checks the cost-ordered chunking
// mode: single branches at the expensive head, growing chunks toward the
// cheap tail, every item claimed exactly once.
func TestWorkQueueRampUpCoversEveryItemOnce(t *testing.T) {
	const n, workers = 3000, 4
	q := newWorkQueue(0, n, workers, 0)
	q.rampUp = true
	seen := make([]int, n)
	first := -1
	var sizes []int
	for {
		begin, end, ok := q.next()
		if !ok {
			break
		}
		if first < 0 {
			first = end - begin
		}
		sizes = append(sizes, end-begin)
		for i := begin; i < end; i++ {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d claimed %d times", i, c)
		}
	}
	if first != 1 {
		t.Fatalf("ramp-up queue must start with single-item chunks, got %d", first)
	}
	if last := sizes[len(sizes)-1]; last <= 1 && n > workers*guidedDivisor*2 {
		t.Fatalf("ramp-up chunks never grew (last=%d over %d pops)", last, len(sizes))
	}
}

// TestBranchScheduleIsDescendingCostPermutation validates the parallel
// driver's cost-ordered schedule on both framework families.
func TestBranchScheduleIsDescendingCostPermutation(t *testing.T) {
	g := gen.NoisyCliques(400, 30, 8, 900, 7)
	for _, opts := range []Options{
		{Algorithm: HBBMC, ET: 3},
		{Algorithm: BKDegen},
	} {
		s, err := NewSession(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		sched := s.branchSchedule()
		items := len(s.vertOrd)
		edgeDriven := opts.Algorithm == HBBMC
		if edgeDriven {
			items = len(s.eo.Order)
		}
		if len(sched) != items {
			t.Fatalf("%v: schedule has %d entries, want %d", opts.Algorithm, len(sched), items)
		}
		seen := make([]bool, items)
		for _, p := range sched {
			if p < 0 || int(p) >= items || seen[p] {
				t.Fatalf("%v: invalid or duplicate position %d", opts.Algorithm, p)
			}
			seen[p] = true
		}
		cost := func(p int32) int32 {
			if edgeDriven {
				return s.inc.Count(s.eo.Order[p])
			}
			v := s.vertOrd[p]
			later := int32(0)
			for _, w := range s.res.Neighbors(v) {
				if s.vertPos[w] > s.vertPos[v] {
					later++
				}
			}
			return later
		}
		if !sort.SliceIsSorted(sched, func(a, b int) bool {
			ca, cb := cost(sched[a]), cost(sched[b])
			if ca != cb {
				return ca > cb
			}
			return sched[a] < sched[b]
		}) {
			t.Fatalf("%v: schedule not in descending cost order", opts.Algorithm)
		}
	}
}

// TestCostOrderEquivalence cross-checks that the cost-ordered parallel
// schedule enumerates exactly the cliques of the raw-order schedule.
func TestCostOrderEquivalence(t *testing.T) {
	g := gen.NoisyCliques(300, 20, 8, 600, 11)
	for _, algo := range []Algorithm{HBBMC, EBBMC, BKDegen, BKRcd} {
		opts := Options{Algorithm: algo, ET: 3, Workers: 4}
		s, err := NewSession(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := s.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ablateCostOrder = true
		s2, err := NewSession(g, opts)
		if err != nil {
			ablateCostOrder = false
			t.Fatal(err)
		}
		got, _, err := s2.Collect(context.Background())
		ablateCostOrder = false
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: cost-ordered run found %d cliques, raw order %d", algo, len(want), len(got))
		}
	}
}

// BenchmarkPivotScan isolates the fused pivot-selection scan on a dense
// branch universe.
func BenchmarkPivotScan(b *testing.B) {
	g := gen.NoisyCliques(2000, 120, 11, 6000, 21)
	want, _, err := Count(g, Options{Algorithm: BKDegen})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := Count(g, Options{Algorithm: BKDegen})
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("got %d cliques, want %d", got, want)
		}
	}
}

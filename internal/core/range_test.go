package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/verify"
)

// collectRange runs one branch-range query and returns its cliques.
func collectRange(t *testing.T, s *Session, lo, hi, workers int) [][]int32 {
	t.Helper()
	var out [][]int32
	_, err := s.EnumerateWith(context.Background(), QueryOptions{
		Workers:  workers,
		BranchLo: lo,
		BranchHi: hi,
	}, func(c []int32) bool {
		out = append(out, append([]int32(nil), c...))
		return true
	})
	if err != nil {
		t.Fatalf("range [%d,%d) w=%d: %v", lo, hi, workers, err)
	}
	return out
}

// TestBranchRangePartitionEquivalence is the core contract the distributed
// coordinator relies on: for every algorithm, any partition of
// [0, NumTopBranches()) into branch-range queries yields, across the
// shards' streams, exactly the clique multiset of an unranged run —
// reduction cliques and isolated vertices included once, via the shard
// holding position 0.
func TestBranchRangePartitionEquivalence(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(701))
	algos := []Algorithm{BK, BKPivot, BKRef, BKDegen, BKDegree, BKRcd, BKFac, EBBMC, HBBMC}
	for iter := 0; iter < 12; iter++ {
		n := 1 + rng.Intn(36)
		g := randomGraph(rng, n, rng.Intn(5*n))
		want := referenceFor(g)
		for _, algo := range algos {
			opts := Options{Algorithm: algo, ET: 3, GR: iter%2 == 0}
			s, err := NewSession(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			branches := s.NumTopBranches()
			for _, shards := range []int{1, 2, 3} {
				for _, workers := range []int{1, 3} {
					// Random cut points partition [0, branches).
					cuts := make([]int, 0, shards+1)
					cuts = append(cuts, 0)
					for i := 1; i < shards; i++ {
						cuts = append(cuts, rng.Intn(branches+1))
					}
					cuts = append(cuts, branches)
					// Insertion-sort the few cut points.
					for i := 1; i < len(cuts); i++ {
						for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
							cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
						}
					}
					var got [][]int32
					if branches == 0 {
						// No branch space to partition; the [0,0) descriptor
						// (the QueryOptions full-run sentinel) still owns the
						// preprocessing residue — reduction cliques on a
						// fully-reduced graph.
						got = collectRange(t, s, 0, 0, workers)
					} else {
						for i := 0; i+1 < len(cuts); i++ {
							lo, hi := cuts[i], cuts[i+1]
							if lo == 0 && hi == 0 {
								// Empty leading interval: nothing to dispatch
								// (and [0,0) would read as the full-run
								// sentinel); the next interval starts at 0
								// and owns the residue.
								continue
							}
							got = append(got, collectRange(t, s, lo, hi, workers)...)
						}
					}
					label := fmt.Sprintf("iter%d/%v/shards%d/w%d cuts=%v", iter, algo, shards, workers, cuts)
					if d := verify.Diff(got, want); d != "" {
						t.Fatalf("%s: %s", label, d)
					}
				}
			}
		}
	}
}

// TestBranchRangeResidueOwnership pins the residue rule on a graph with
// both reduction cliques and isolated vertices: only the shard containing
// position 0 emits them.
func TestBranchRangeResidueOwnership(t *testing.T) {
	// A path plus isolated vertices: reduction removes degree-1 chains, and
	// vertices 6..9 are isolated 1-cliques.
	b := graph.NewBuilder(10)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.MustBuild()
	for _, algo := range []Algorithm{BKDegen, HBBMC} {
		s, err := NewSession(g, Options{Algorithm: algo, ET: 3, GR: true})
		if err != nil {
			t.Fatal(err)
		}
		branches := s.NumTopBranches()
		want := referenceFor(g)
		full := collectRange(t, s, 0, branches, 1)
		if d := verify.Diff(full, want); d != "" {
			t.Fatalf("%v full range: %s", algo, d)
		}
		if branches >= 2 {
			head := collectRange(t, s, 0, 1, 1)
			tail := collectRange(t, s, 1, branches, 1)
			if d := verify.Diff(append(head, tail...), want); d != "" {
				t.Fatalf("%v head+tail: %s", algo, d)
			}
		}
	}
}

// TestBranchRangeValidation checks the two rejection paths: a malformed
// interval and one that exceeds the session's branch space.
func TestBranchRangeValidation(t *testing.T) {
	g := gen.NoisyCliques(40, 5, 4, 60, 3)
	s, err := NewSession(g, Options{Algorithm: HBBMC, ET: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnumerateWith(context.Background(), QueryOptions{BranchLo: 3, BranchHi: 1}, nil); err == nil {
		t.Fatal("inverted branch range accepted")
	}
	if _, err := s.EnumerateWith(context.Background(), QueryOptions{BranchLo: -1, BranchHi: 1}, nil); err == nil {
		t.Fatal("negative branch range accepted")
	}
	over := s.NumTopBranches() + 1
	if _, err := s.EnumerateWith(context.Background(), QueryOptions{BranchLo: 0, BranchHi: over}, nil); err == nil {
		t.Fatal("out-of-bounds branch range accepted")
	}
}

// TestOrderingFingerprintDiscriminates: sessions over the same graph with
// different orderings (and over different graphs) disagree, identical
// sessions agree.
func TestOrderingFingerprintDiscriminates(t *testing.T) {
	g := gen.NoisyCliques(60, 6, 5, 100, 11)
	a1, err := NewSession(g, Options{Algorithm: HBBMC, ET: 3})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := NewSession(g, Options{Algorithm: HBBMC, ET: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a1.OrderingFingerprint() != a2.OrderingFingerprint() {
		t.Fatal("identical sessions disagree on OrderingFingerprint")
	}
	if a1.GraphFingerprint() != a2.GraphFingerprint() {
		t.Fatal("identical sessions disagree on GraphFingerprint")
	}
	b, err := NewSession(g, Options{Algorithm: HBBMC, ET: 3, EdgeOrder: EdgeOrderMinDegree})
	if err != nil {
		t.Fatal(err)
	}
	if a1.OrderingFingerprint() == b.OrderingFingerprint() {
		t.Fatal("different edge orders share an OrderingFingerprint")
	}
	g2 := gen.NoisyCliques(60, 6, 5, 100, 12)
	c, err := NewSession(g2, Options{Algorithm: HBBMC, ET: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a1.GraphFingerprint() == c.GraphFingerprint() {
		t.Fatal("different graphs share a GraphFingerprint")
	}
}

// TestRampUpChunkMatchesQueue: the exported policy and the work queue's
// ramp-up mode must hand out identical chunk sequences — the property that
// makes remote shard streams and local worker claims the same decomposition.
func TestRampUpChunkMatchesQueue(t *testing.T) {
	const n, workers = 500, 3
	q := newWorkQueue(0, n, workers, 0)
	q.rampUp = true
	pos := 0
	for {
		begin, end, ok := q.next()
		if !ok {
			break
		}
		want := RampUpChunk(pos, n-pos, workers)
		if begin != pos || end-begin != want {
			t.Fatalf("queue gave [%d,%d) at pos %d, policy says chunk %d", begin, end, pos, want)
		}
		pos = end
	}
	if pos != n {
		t.Fatalf("queue drained at %d of %d", pos, n)
	}
	if RampUpChunk(0, 0, workers) != 0 {
		t.Fatal("RampUpChunk(remaining=0) must be 0")
	}
}

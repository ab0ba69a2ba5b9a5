package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/verify"
)

// kernelBoundaryGraph builds a 67-member block around a core of 12 members
// adjacent to every other member, so an edge between two of them has 65
// common neighbours. Core member 10 is not adjacent to member 12 and core
// member 11 not to members 13 and 14, so their core edges have 64 and 63:
// branch universes on both sides of the one-word kernel's limit. The other
// 55 members form 30 overlapping 6-cliques, so branches recurse and carry
// exclusion members.
//
// A separate gadget leaves a masked candidate edge under the truss order:
// edge (a,b) lies in the 4-clique {a,b,w1,w2} and in a 5-clique with three
// more vertices, and each side edge between {a,b} and {w1,w2} lies in a
// 7-clique of its own. The truss order peels (w1,w2) first, then (a,b),
// then the side edges.
func kernelBoundaryGraph(seed int64) *graph.Graph {
	const size, core = 67, 12
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(size + 27)
	clique := func(vs ...int32) {
		for i, u := range vs {
			for _, v := range vs[i+1:] {
				b.AddEdge(u, v)
			}
		}
	}
	missing := map[[2]int32]bool{{10, core}: true, {11, core + 1}: true, {11, core + 2}: true}
	for i := int32(0); i < core; i++ {
		for j := i + 1; j < size; j++ {
			if !missing[[2]int32{i, j}] {
				b.AddEdge(i, j)
			}
		}
	}
	for range 30 {
		var members [6]int32
		for i := range members {
			members[i] = core + int32(rng.Intn(size-core))
		}
		clique(members[:]...)
	}
	a, bb, w1, w2 := int32(size), int32(size+1), int32(size+2), int32(size+3)
	clique(a, bb, w1, w2)
	clique(a, bb, size+4, size+5, size+6)
	next := int32(size + 7)
	for _, side := range [][2]int32{{a, w1}, {a, w2}, {bb, w1}, {bb, w2}} {
		clique(side[0], side[1], next, next+1, next+2, next+3, next+4)
		next += 5
	}
	return b.MustBuild()
}

// branchShapes returns the universe sizes of the session's edge branches
// that build a universe (more than two common neighbours, at least one a
// candidate) and how many of those with at most 64 members have a masked
// candidate edge.
func branchShapes(s *Session) (sizes map[int]bool, maskedWord int) {
	sizes = map[int]bool{}
	for _, eid := range s.eo.Order {
		r := s.eo.Rank[eid]
		lo, hi := s.inc.Range(eid)
		var cand []int32
		for t := lo; t < hi; t++ {
			if s.eo.Rank[s.inc.CoSrc(t)] > r && s.eo.Rank[s.inc.CoDst(t)] > r {
				cand = append(cand, s.inc.Third(t))
			}
		}
		if hi-lo <= 2 || len(cand) == 0 {
			continue
		}
		sizes[int(hi-lo)] = true
		masked := false
		for i, u := range cand {
			for _, w := range cand[i+1:] {
				if f := s.res.EdgeID(u, w); f >= 0 && s.eo.Rank[f] <= r {
					masked = true
				}
			}
		}
		if masked && hi-lo <= 64 {
			maskedWord++
		}
	}
	return sizes, maskedWord
}

// kernelCounters are the Stats the one-word kernel must report exactly as
// the generic path does.
func kernelCounters(st *Stats) [12]int64 {
	return [12]int64{st.Cliques, st.Calls, st.VertexCalls, st.PlexBranches, st.EarlyTerminations,
		st.ETCliques, st.SuppressedLeaves, st.TopBranches, int64(st.MaxCliqueSize),
		st.UniverseEntries, st.UniverseBits, st.PivotWords}
}

// TestWordKernelBoundary runs HBBMC on universes of 63, 64 and 65 members
// under every edge order, ET threshold, reduction setting and 1 or 2
// workers, and with the X-domination prune off. Each run must find the
// reference clique set and the generic path's counters; one worker must
// also deliver the generic path's clique sequence. Only the truss order
// leaves masked candidate edges: the degeneracy and mindegree orders rank
// every edge between two candidates after the branch edge.
func TestWordKernelBoundary(t *testing.T) {
	defer func() { ablateWordKernel, ablateMaskFree, ablateXDomination = false, false, false }()
	g := kernelBoundaryGraph(4)
	want := referenceFor(g)
	collect := func(s *Session, workers int) ([][]int32, *Stats) {
		var got [][]int32
		st, err := s.EnumerateWith(context.Background(), QueryOptions{Workers: workers}, func(c []int32) bool {
			got = append(got, slices.Clone(c))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, st
	}
	runs := []struct {
		workers int
		noXDom  bool
	}{{1, false}, {2, false}, {1, true}}
	for _, order := range []EdgeOrderKind{EdgeOrderTruss, EdgeOrderDegeneracy, EdgeOrderMinDegree} {
		for et := 0; et <= 3; et++ {
			for _, gr := range []bool{false, true} {
				s, err := NewSession(g, Options{Algorithm: HBBMC, EdgeOrder: order, ET: et, GR: gr})
				if err != nil {
					t.Fatal(err)
				}
				sizes, masked := branchShapes(s)
				for _, k := range []int{63, 64, 65} {
					if !sizes[k] {
						t.Fatalf("%v: no edge branch with a %d-member universe", order, k)
					}
				}
				if order == EdgeOrderTruss && masked == 0 {
					t.Fatalf("truss order: no masked branch of at most 64 members")
				}
				for _, run := range runs {
					label := fmt.Sprintf("%v/ET%d/GR=%v/w%d/noXDom=%v", order, et, gr, run.workers, run.noXDom)
					ablateXDomination = run.noXDom
					got, st := collect(s, run.workers)
					ablateWordKernel = true
					ref, refSt := collect(s, run.workers)
					ablateWordKernel = false
					// Without the mask-free check every kernel-sized branch
					// copies its word rows into arena rows.
					ablateMaskFree = true
					copied, _ := collect(s, run.workers)
					ablateMaskFree, ablateXDomination = false, false
					for _, cl := range [][][]int32{got, copied} {
						if d := verify.Diff(cl, want); d != "" {
							t.Fatalf("%s: %s", label, d)
						}
					}
					if run.workers == 1 && !slices.EqualFunc(got, ref, slices.Equal) {
						t.Errorf("%s: clique sequence differs from the generic path", label)
					}
					if c, r := kernelCounters(st), kernelCounters(refSt); c != r {
						t.Errorf("%s: counters %v, generic path %v", label, c, r)
					}
				}
			}
		}
	}
}

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

// kernelBoundaryGraph builds two blocks, of 67 and of 131 members, each
// around a core of 12 members adjacent to every other member of the block,
// so an edge between two of them has 65 or 129 common neighbours. Core
// member 10 is not adjacent to member 12 and core member 11 not to members
// 13 and 14, so their core edges have 64 and 63, or 128 and 127: branch
// universes on both sides of each word kernel's limit. The other members
// form overlapping 6-cliques, so branches recurse and carry exclusion
// members.
//
// Two gadgets leave a masked candidate edge under the truss order: edge
// (a,b) lies in the 4-clique {a,b,w1,w2}, and each side edge between {a,b}
// and {w1,w2} lies in a 7-clique of its own. In the narrow gadget (a,b)
// also lies in a 5-clique with three more vertices; the truss order peels
// (w1,w2) first, then (a,b), then the side edges, and (a,b)'s masked
// universe has 5 members. In the wide gadget 63 more vertices are adjacent
// to a and b and joined in a cycle: their edges peel first, so (a,b) still
// ranks below its side edges, and its masked universe has 65 members.
//
// A pivot gadget gives one two-word universe an exclusion pivot: edge
// (a,b) has 18 independent common neighbours `hi`, each also adjacent to an
// 18-clique, and 48 more `lo` adjacent to a few of hi. The degeneracy order
// takes lo first, then a and b, then the rest, so in that order hi are
// (a,b)'s candidates and lo its exclusion members, with rows. The triangle
// incidence lists (a,b)'s lo in id order, so the last lo is laid out in the
// upper word; it is adjacent to more candidates than any other member, so
// it is the pivot.
func kernelBoundaryGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(1)
	next := int32(0)
	take := func(n int) []int32 {
		vs := make([]int32, n)
		for i := range vs {
			vs[i] = next
			next++
		}
		return vs
	}
	clique := func(vs ...int32) {
		for i, u := range vs {
			for _, v := range vs[i+1:] {
				b.AddEdge(u, v)
			}
		}
	}
	const core = 12
	for _, blk := range []struct{ size, cliques int }{{67, 30}, {131, 60}} {
		vs := take(blk.size)
		missing := map[[2]int32]bool{{10, core}: true, {11, core + 1}: true, {11, core + 2}: true}
		for i := int32(0); i < core; i++ {
			for j := i + 1; j < int32(blk.size); j++ {
				if !missing[[2]int32{i, j}] {
					b.AddEdge(vs[i], vs[j])
				}
			}
		}
		for range blk.cliques {
			var members [6]int32
			for i := range members {
				members[i] = vs[core+rng.Intn(blk.size-core)]
			}
			clique(members[:]...)
		}
	}
	for _, wide := range []bool{false, true} {
		ab, w := take(2), take(2)
		clique(ab[0], ab[1], w[0], w[1])
		if wide {
			ring := take(63)
			for i, m := range ring {
				b.AddEdge(ab[0], m)
				b.AddEdge(ab[1], m)
				b.AddEdge(m, ring[(i+1)%len(ring)])
			}
		} else {
			clique(append(ab, take(3)...)...)
		}
		for _, side := range [][2]int32{{ab[0], w[0]}, {ab[0], w[1]}, {ab[1], w[0]}, {ab[1], w[1]}} {
			clique(append(side[:], take(5)...)...)
		}
	}
	ab, hi, lo, d := take(2), take(18), take(48), take(18)
	b.AddEdge(ab[0], ab[1])
	clique(d...)
	for _, h := range hi {
		b.AddEdge(ab[0], h)
		b.AddEdge(ab[1], h)
		for _, x := range d {
			b.AddEdge(h, x)
		}
	}
	for i, l := range lo {
		b.AddEdge(ab[0], l)
		b.AddEdge(ab[1], l)
		k := 8
		if i == len(lo)-1 {
			k = 15
		}
		for _, j := range rng.Perm(len(hi))[:k] {
			b.AddEdge(l, hi[j])
		}
	}
	return b.MustBuild()
}

// branchShapes returns the universe sizes of the session's edge branches
// that build a universe (more than two common neighbours, at least one a
// candidate) and how many of those have a masked candidate edge at each
// word width: masked[0] of at most 64 members, masked[1] of 65–128.
func branchShapes(s *Session) (sizes map[int]bool, masked [2]int) {
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
		k := int(hi - lo)
		if k <= 2 || len(cand) == 0 {
			continue
		}
		sizes[k] = true
		if k > maxWordUniverse || !maskedBranchOf(s, cand, r) {
			continue
		}
		if k <= 64 {
			masked[0]++
		} else {
			masked[1]++
		}
	}
	return sizes, masked
}

// maskedBranchOf reports whether two of a branch's candidates share an edge
// ranked at or below the branch's rank r.
func maskedBranchOf(s *Session, cand []int32, r int32) bool {
	for i, u := range cand {
		for _, w := range cand[i+1:] {
			if f := s.res.EdgeID(u, w); f >= 0 && s.eo.Rank[f] <= r {
				return true
			}
		}
	}
	return false
}

// kernelCounters are the Stats the one-word kernel must report exactly as
// the generic path does.
func kernelCounters(st *Stats) [12]int64 {
	return [12]int64{st.Cliques, st.Calls, st.VertexCalls, st.PlexBranches, st.EarlyTerminations,
		st.ETCliques, st.SuppressedLeaves, st.TopBranches, int64(st.MaxCliqueSize),
		st.UniverseEntries, st.UniverseBits, st.PivotWords}
}

// TestWordKernelBoundary runs HBBMC on universes of 63, 64, 65, 127, 128
// and 129 members under every edge order, ET threshold, reduction setting
// and 1 or 2 workers, and with the X-domination prune off. Each run must
// find the reference clique set and the generic path's counters; one
// worker must also deliver the generic path's clique sequence. Only the
// truss order leaves masked candidate edges: the degeneracy and mindegree
// orders rank every edge between two candidates after the branch edge. Its
// masked branches, at both widths, stay on the word kernels, and with the
// mask-free check ablated every branch of at most 128 members starts
// masked on them.
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
				for _, k := range []int{63, 64, 65, 127, 128, 129} {
					if !sizes[k] {
						t.Fatalf("%v: no edge branch with a %d-member universe", order, k)
					}
				}
				if order == EdgeOrderTruss && (masked[0] == 0 || masked[1] == 0) {
					t.Fatalf("truss order: masked branches %v of at most 64 and of 65–128 members, want both", masked)
				}
				for _, run := range runs {
					label := fmt.Sprintf("%v/ET%d/GR=%v/w%d/noXDom=%v", order, et, gr, run.workers, run.noXDom)
					ablateXDomination = run.noXDom
					got, st := collect(s, run.workers)
					ablateWordKernel = true
					ref, refSt := collect(s, run.workers)
					ablateWordKernel = false
					ablateMaskFree = true
					allMasked, maskedSt := collect(s, run.workers)
					ablateMaskFree, ablateXDomination = false, false
					for _, cl := range [][][]int32{got, allMasked} {
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
					if c, r := kernelCounters(maskedSt), kernelCounters(refSt); c != r {
						t.Errorf("%s: counters with every branch masked %v, generic path %v", label, c, r)
					}
				}
			}
		}
	}
}

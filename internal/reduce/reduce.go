// Package reduce implements the graph-reduction technique GR of Deng,
// Zheng & Cheng (VLDB 2024, [15] in the paper): low-degree and simplicial
// vertices are peeled off before branching, the maximal cliques that contain
// them are emitted directly, and enumeration continues on the residual
// graph.
//
// Soundness contract. When a rule removes v it first emits every maximal
// clique of G that contains v and no previously removed vertex (each
// candidate is validated against the ORIGINAL adjacency: its common
// neighborhood must be empty). Inductively, after the fixpoint the maximal
// cliques of G are exactly: the emitted ones, plus the residual-graph
// maximal cliques that no removed vertex dominates. Enumerators check the
// latter condition through HasRemovedDominator before reporting a clique.
package reduce

import (
	"sort"

	"github.com/graphmining/hbbmc/internal/graph"
)

// Options configures the reduction.
type Options struct {
	// MaxDegree is the largest residual degree a vertex may have to be
	// considered for removal. Degrees 0-2 use the exact rules of [15];
	// higher degrees only fire when the vertex is simplicial (its residual
	// neighborhood is a clique). Zero selects the default of 2.
	MaxDegree int
}

// Result is the outcome of a reduction pass.
type Result struct {
	// Residual is the reduced graph with vertices relabelled 0..n'-1.
	Residual *graph.Graph
	// OrigID maps residual ids back to vertices of the input graph.
	OrigID []int32
	// Cliques are the maximal cliques (original ids, sorted) emitted by the
	// reduction rules.
	Cliques [][]int32
	// NumRemoved is the number of vertices peeled off.
	NumRemoved int

	// removedNbrs[removedOff[v]:removedOff[v+1]] lists, for vertex v of the
	// input graph, its removed neighbors, sorted ascending. Both are nil
	// when nothing was removed.
	removedOff  []int32
	removedNbrs []int32
}

// Apply runs the reduction to fixpoint.
func Apply(g *graph.Graph, opts Options) *Result {
	maxDeg := opts.MaxDegree
	if maxDeg <= 0 {
		maxDeg = 2
	}
	n := g.NumVertices()
	alive := make([]bool, n)
	resDeg := make([]int32, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		resDeg[v] = int32(g.Degree(int32(v)))
	}
	inQueue := make([]bool, n)
	var queue []int32
	push := func(v int32) {
		if alive[v] && !inQueue[v] && int(resDeg[v]) <= maxDeg {
			inQueue[v] = true
			queue = append(queue, v)
		}
	}
	for v := int32(0); v < int32(n); v++ {
		push(v)
	}

	res := &Result{}
	aliveNbrs := make([]int32, 0, maxDeg+1)
	kbuf := make([]int32, 0, maxDeg+2)

	emit := func(K []int32) {
		c := append([]int32(nil), K...)
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		res.Cliques = append(res.Cliques, c)
	}
	remove := func(v int32) {
		alive[v] = false
		res.NumRemoved++
		for _, w := range g.Neighbors(v) {
			if alive[w] {
				resDeg[w]--
				push(w)
			}
		}
	}

	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		inQueue[v] = false
		if !alive[v] || int(resDeg[v]) > maxDeg {
			continue
		}
		aliveNbrs = aliveNbrs[:0]
		for _, w := range g.Neighbors(v) {
			if alive[w] {
				aliveNbrs = append(aliveNbrs, w)
			}
		}
		switch {
		case len(aliveNbrs) == 0:
			if g.Degree(v) == 0 { // isolated in G: {v} is maximal
				emit([]int32{v})
			}
			remove(v)
		case len(aliveNbrs) == 1:
			kbuf = append(kbuf[:0], v, aliveNbrs[0])
			if commonNeighborhoodEmpty(g, kbuf) {
				emit(kbuf)
			}
			remove(v)
		case len(aliveNbrs) == 2 && !g.HasEdge(aliveNbrs[0], aliveNbrs[1]):
			for _, u := range aliveNbrs {
				kbuf = append(kbuf[:0], v, u)
				if commonNeighborhoodEmpty(g, kbuf) {
					emit(kbuf)
				}
			}
			remove(v)
		default:
			// Simplicial rule: residual neighborhood must be a clique.
			if !isClique(g, aliveNbrs) {
				continue
			}
			kbuf = append(kbuf[:0], v)
			kbuf = append(kbuf, aliveNbrs...)
			if commonNeighborhoodEmpty(g, kbuf) {
				emit(kbuf)
			}
			remove(v)
		}
	}

	if res.NumRemoved == 0 {
		// Nothing to relabel: the residual is the input graph itself.
		res.Residual, res.OrigID = g, identityIDs(n)
		return res
	}
	// Relabel the residual graph.
	newID := make([]int32, n)
	for v := 0; v < n; v++ {
		newID[v] = -1
	}
	for v := 0; v < n; v++ {
		if alive[v] {
			newID[v] = int32(len(res.OrigID))
			res.OrigID = append(res.OrigID, int32(v))
		}
	}
	// Relabelling keeps the survivors' relative order, so walking them in
	// order over their sorted adjacency yields the residual's edge keys
	// already sorted and distinct: the CSR needs no sort. The same walk
	// lists each survivor's removed neighbours; a removed vertex's own list
	// stays empty, since no residual clique holds it.
	keys := make([]uint64, 0, g.NumEdges())
	res.removedOff = make([]int32, n+1)
	for v := int32(0); v < int32(n); v++ {
		if r := newID[v]; r >= 0 {
			for _, w := range g.Neighbors(v) {
				if !alive[w] {
					res.removedNbrs = append(res.removedNbrs, w)
				} else if newID[w] > r {
					keys = append(keys, uint64(r)<<32|uint64(newID[w]))
				}
			}
		}
		res.removedOff[v+1] = int32(len(res.removedNbrs))
	}
	res.Residual = graph.FromSortedKeys(len(res.OrigID), keys)
	return res
}

// isClique reports whether the given original-graph vertices are pairwise
// adjacent.
func isClique(g *graph.Graph, vs []int32) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// commonNeighborhoodEmpty reports whether no vertex of g (alive or removed)
// is adjacent to every vertex of K, i.e. K is maximal in the original graph.
func commonNeighborhoodEmpty(g *graph.Graph, K []int32) bool {
	// Scan the members' smallest adjacency list.
	min := 0
	for i := 1; i < len(K); i++ {
		if g.Degree(K[i]) < g.Degree(K[min]) {
			min = i
		}
	}
	for _, z := range g.Neighbors(K[min]) {
		inK := false
		for _, u := range K {
			if u == z {
				inK = true
				break
			}
		}
		if inK {
			continue
		}
		dominates := true
		for _, u := range K {
			if u != K[min] && !g.HasEdge(z, u) {
				dominates = false
				break
			}
		}
		if dominates {
			return false
		}
	}
	return true
}

// HasRemovedDominator reports whether some removed vertex is adjacent to
// every vertex of the residual clique K, given in original ids (ids of the
// input graph). Such a clique is maximal in the residual graph but not in
// the original one, so enumerators must suppress it.
func (r *Result) HasRemovedDominator(K []int32) bool {
	if r.NumRemoved == 0 {
		return false
	}
	if len(K) == 0 {
		return true
	}
	// Start with the shortest removed-neighbor list; an untainted member
	// settles the question immediately.
	min := K[0]
	for _, v := range K {
		n := r.removedOff[v+1] - r.removedOff[v]
		if n == 0 {
			return false
		}
		if n < r.removedOff[min+1]-r.removedOff[min] {
			min = v
		}
	}
	for _, z := range r.removedOf(min) {
		inAll := true
		for _, v := range K {
			if v != min && !containsSorted(r.removedOf(v), z) {
				inAll = false
				break
			}
		}
		if inAll {
			return true
		}
	}
	return false
}

// removedOf returns the removed neighbors of input vertex v.
func (r *Result) removedOf(v int32) []int32 {
	return r.removedNbrs[r.removedOff[v]:r.removedOff[v+1]]
}

// MemoryFootprint returns the number of bytes retained by the reduction
// artifacts beyond the residual graph itself: the id mapping, the emitted
// cliques and the removed-neighbor lists. The residual graph is excluded so
// callers can combine this with Graph.MemoryFootprint without double
// counting.
func (r *Result) MemoryFootprint() int64 {
	b := int64(len(r.OrigID)) * 4
	for _, c := range r.Cliques {
		b += int64(len(c))*4 + 24 // data + slice header
	}
	b += int64(len(r.removedOff)+len(r.removedNbrs)) * 4
	return b
}

func containsSorted(xs []int32, x int32) bool {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= x })
	return i < len(xs) && xs[i] == x
}

// Identity returns a no-op Result for g: nothing removed, residual == g.
// Enumerators use it when reduction is disabled so that downstream code has
// a single shape to handle.
func Identity(g *graph.Graph) *Result {
	return &Result{Residual: g, OrigID: identityIDs(g.NumVertices())}
}

// identityIDs is the OrigID of a residual that is the input graph itself.
func identityIDs(n int) []int32 {
	orig := make([]int32, n)
	for v := range orig {
		orig[v] = int32(v)
	}
	return orig
}

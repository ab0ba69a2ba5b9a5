package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge for graph construction; orientation is ignored.
type Edge struct {
	U, V int32
}

// Builder accumulates edges and materialises an immutable Graph. Self-loops
// and duplicate edges (in either orientation) are dropped.
type Builder struct {
	n     int32
	edges []Edge
}

// NewBuilder returns a Builder for a graph with at least n vertices. Vertices
// mentioned by AddEdge extend the count automatically.
func NewBuilder(n int) *Builder {
	return &Builder{n: int32(n)}
}

// AddEdge records the undirected edge (u,v).
func (b *Builder) AddEdge(u, v int32) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if v+1 > b.n {
		b.n = v + 1
	}
	b.edges = append(b.edges, Edge{u, v})
}

// Build materialises the graph. The Builder remains usable afterwards.
func (b *Builder) Build() (*Graph, error) {
	return FromEdges(int(b.n), b.edges)
}

// MustBuild is Build panicking on error; construction only fails on negative
// ids, so generators and tests use this form.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges constructs a Graph with n vertices from an undirected edge list.
// Self-loops and duplicates are removed; edge orientation is normalised.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	norm := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("graph: negative vertex id in edge (%d,%d)", e.U, e.V)
		}
		if int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) exceeds vertex count %d", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		norm = append(norm, e)
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].U != norm[j].U {
			return norm[i].U < norm[j].U
		}
		return norm[i].V < norm[j].V
	})
	// Deduplicate in place.
	uniq := norm[:0]
	for i, e := range norm {
		if i > 0 && e == norm[i-1] {
			continue
		}
		uniq = append(uniq, e)
	}
	m := len(uniq)

	g := &Graph{
		offsets: make([]int64, n+1),
		adj:     make([]int32, 2*m),
		eids:    make([]int32, 2*m),
		srcs:    make([]int32, m),
		dsts:    make([]int32, m),
	}
	deg := make([]int32, n)
	for i, e := range uniq {
		g.srcs[i] = e.U
		g.dsts[i] = e.V
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + int64(deg[v])
	}
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	for i, e := range uniq {
		g.adj[cursor[e.U]] = e.V
		g.eids[cursor[e.U]] = int32(i)
		cursor[e.U]++
		g.adj[cursor[e.V]] = e.U
		g.eids[cursor[e.V]] = int32(i)
		cursor[e.V]++
	}
	// Edges are inserted in lexicographic order of (min,max), so each
	// vertex's list holds its smaller neighbors in ascending order, followed
	// by its larger ones in ascending order: every list is already sorted.
	return g, nil
}

// InducedSubgraph returns the subgraph induced by the given vertices together
// with the mapping from new ids (0..len-1) back to the original ids. The
// input may be unsorted; duplicates are an error.
func (g *Graph) InducedSubgraph(vs []int32) (*Graph, []int32, error) {
	local := make(map[int32]int32, len(vs))
	back := make([]int32, len(vs))
	for i, v := range vs {
		if v < 0 || int(v) >= g.NumVertices() {
			return nil, nil, fmt.Errorf("graph: induced vertex %d out of range", v)
		}
		if _, dup := local[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in induced set", v)
		}
		local[v] = int32(i)
		back[i] = v
	}
	b := NewBuilder(len(vs))
	for i, v := range vs {
		for _, w := range g.Neighbors(v) {
			if j, ok := local[w]; ok && int32(i) < j {
				b.AddEdge(int32(i), j)
			}
		}
	}
	sub, err := b.Build()
	return sub, back, err
}

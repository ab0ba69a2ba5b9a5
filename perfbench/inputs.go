package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/dataset"
)

// input is one stand-in graph of the paper's Table I, relabelled by the
// run's seed and written to disk for the program to load.
type input struct {
	name string
	ref  reference
	// g is the relabelled graph; mix maps each relabelled vertex id to the
	// hash of its original id, so clique checksums do not depend on the seed.
	g    *hbbmc.Graph
	mix  []uint64
	path string
}

// makeInputs relabels the named stand-ins by a permutation drawn from seed
// and writes each under dir: as a SNAP edge list (".txt") or a binary
// snapshot (".hbg"). The relabelled graphs are isomorphic to the stand-ins,
// so the fixed reference answers hold for every seed. internal/dataset
// caches the generated stand-ins per process, so only the first call pays
// their generation.
func makeInputs(dir string, seed int64, names []string, ext string) ([]*input, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := make([]*input, 0, len(names))
	for _, name := range names {
		spec, ok := dataset.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown stand-in %q", name)
		}
		ref, ok := references[name]
		if !ok {
			return nil, fmt.Errorf("no reference answers for stand-in %s", name)
		}
		in, err := relabel(name, spec.Build(), seed)
		if err != nil {
			return nil, err
		}
		in.ref = ref
		in.path = filepath.Join(dir, name+ext)
		if ext == ".hbg" {
			err = in.g.SaveBinaryFile(in.path)
		} else {
			err = writeEdgeList(in.path, in.g)
		}
		if err != nil {
			return nil, fmt.Errorf("writing %s: %w", in.path, err)
		}
		out = append(out, in)
	}
	return out, nil
}

func relabel(name string, g0 *hbbmc.Graph, seed int64) (*input, error) {
	h := fnv.New64a()
	h.Write([]byte(name))
	n := g0.NumVertices()
	perm := rand.New(rand.NewPCG(uint64(seed), h.Sum64())).Perm(n)
	b := hbbmc.NewBuilder(n)
	mix := make([]uint64, n)
	for u := 0; u < n; u++ {
		// An edge list cannot carry an isolated vertex, whose singleton
		// clique the references count.
		if g0.Degree(int32(u)) == 0 {
			return nil, fmt.Errorf("stand-in %s has isolated vertex %d", name, u)
		}
		mix[perm[u]] = splitmix(uint64(u))
		for _, v := range g0.Neighbors(int32(u)) {
			if int32(u) < v {
				b.AddEdge(int32(perm[u]), int32(perm[v]))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &input{name: name, g: g, mix: mix}, nil
}

func writeEdgeList(path string, g *hbbmc.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprintf(w, "# Undirected graph: %d nodes, %d edges\n", g.NumVertices(), g.NumEdges())
	var line []byte
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				line = strconv.AppendInt(line[:0], int64(u), 10)
				line = append(line, '\t')
				line = strconv.AppendInt(line, int64(v), 10)
				line = append(line, '\n')
				w.Write(line)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// maxSize bounds the clique-size histogram; no stand-in has a clique this
// large (the biggest planted one has 40 vertices).
const maxSize = 64

// tally folds every clique it sees into an order-independent checksum, the
// clique count and the size histogram, without allocating. first records
// when the first clique arrived.
type tally struct {
	mix   []uint64
	n     int64
	sum   uint64
	hist  [maxSize]int64
	first time.Time
}

func newTally(mix []uint64) *tally { return &tally{mix: mix} }

func (t *tally) add(c []int32) bool {
	if t.n == 0 {
		t.first = time.Now()
	}
	t.n++
	var h uint64
	for _, v := range c {
		if int(v) >= len(t.mix) || v < 0 {
			// An id outside the graph: poison the checksum.
			h ^= 1 << 63
			continue
		}
		h += t.mix[v]
	}
	t.sum += splitmix(h ^ uint64(len(c)))
	t.hist[min(len(c), maxSize-1)]++
	return true
}

// check compares the tally with the reference answers.
func (t *tally) check(ref reference) error {
	if t.n != ref.cliques || t.sum != ref.sum || t.hist != ref.histogram() {
		return fmt.Errorf("got %d cliques (checksum %016x, ω %d), want %d (checksum %016x, ω %d)",
			t.n, t.sum, omegaOf(t.hist), ref.cliques, ref.sum, ref.omega())
	}
	return nil
}

func omegaOf(h [maxSize]int64) int {
	for s := maxSize - 1; s > 0; s-- {
		if h[s] > 0 {
			return s
		}
	}
	return 0
}

// reference holds the fixed answers for one stand-in: the maximal-clique
// count, their checksum and size histogram, and the number of 4- and
// 5-vertex cliques. The maximum-clique size and the top-10 clique sizes
// follow from the histogram.
type reference struct {
	cliques int64
	sum     uint64
	hist    map[int]int64
	k4, k5  int64
}

func (r reference) histogram() (h [maxSize]int64) {
	for s, n := range r.hist {
		h[s] = n
	}
	return h
}

func (r reference) omega() int { return omegaOf(r.histogram()) }

// topSizes returns the sizes of the k largest maximal cliques, largest first.
func (r reference) topSizes(k int) []int {
	h := r.histogram()
	var out []int
	for s := maxSize - 1; s > 0 && len(out) < k; s-- {
		for i := int64(0); i < h[s] && len(out) < k; i++ {
			out = append(out, s)
		}
	}
	return out
}

// kcliques returns the number of k-vertex cliques for k = 4 or 5, and -1,
// which no count matches, for any other k.
func (r reference) kcliques(k int) int64 {
	switch k {
	case 4:
		return r.k4
	case 5:
		return r.k5
	}
	return -1
}

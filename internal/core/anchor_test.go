package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/graphmining/hbbmc/internal/dataset"
	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/verify"
)

// pendants gives v n new neighbours of degree one, which lift its degree
// and touch no triangle.
func pendants(b *graph.Builder, v int32, n int, next *int32) {
	for range n {
		b.AddEdge(v, *next)
		*next++
	}
}

// anchorFanGraph builds anchor 0 with k branch edges (0, b_i) for the
// min-degree edge order. The anchor is adjacent to a set W of w vertices,
// joined at random with probability 1/5, and b_i to the span members of W
// from position i·(w−span)/(k−1) on, so every branch universe has span
// members and their union is W. Pendants order the degrees 0 < b_i < W, so
// each branch edge ranks below every edge of its triangles and its whole
// universe is candidates.
func anchorFanGraph(w, span, k int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(1)
	ws := make([]int32, w)
	for i := range ws {
		ws[i] = int32(1 + i)
		b.AddEdge(0, ws[i])
		for j := range i {
			if rng.Intn(5) == 0 {
				b.AddEdge(ws[j], ws[i])
			}
		}
	}
	next := int32(1 + w + k)
	for i := 0; i < k; i++ {
		bi := int32(1 + w + i)
		b.AddEdge(0, bi)
		from := i * (w - span) / max(k-1, 1)
		for _, x := range ws[from : from+span] {
			b.AddEdge(bi, x)
		}
		pendants(b, bi, w+k, &next)
	}
	for _, x := range ws {
		pendants(b, x, 2*(w+k), &next)
	}
	return b.MustBuild()
}

// anchorMaskedGraph builds an anchor group holding a masked branch under
// the truss order: edge (0,1) lies in the 20-clique {0,1,q_1..q_18} and in
// the 4-clique {0,1,w1,w2}, and each side edge between {0,1} and {w1,w2}
// lies in a 30-clique of its own, so the order peels (w1,w2) first and
// (0,1) before its side edges: w1 and w2 are candidates of (0,1) joined by
// a masked edge. Four hubs adjacent to 0, 1 and every q, with pendants
// that lift their degree above vertex 0's, put their edges to 0 in vertex
// 0's group with (0,1), where their universes share the q's rows.
func anchorMaskedGraph() *graph.Graph {
	b := graph.NewBuilder(2)
	clique := func(vs ...int32) {
		for i, u := range vs {
			for _, v := range vs[i+1:] {
				b.AddEdge(u, v)
			}
		}
	}
	next := int32(2)
	take := func(n int) []int32 {
		vs := make([]int32, n)
		for i := range vs {
			vs[i] = next
			next++
		}
		return vs
	}
	block := append([]int32{0, 1}, take(18)...)
	clique(block...)
	w := take(2)
	clique(0, 1, w[0], w[1])
	for _, s := range [][2]int32{{0, w[0]}, {0, w[1]}, {1, w[0]}, {1, w[1]}} {
		clique(append([]int32{s[0], s[1]}, take(28)...)...)
	}
	for _, h := range take(4) {
		for _, v := range block {
			b.AddEdge(h, v)
		}
		pendants(b, h, 100, &next)
	}
	return b.MustBuild()
}

// groupShape summarises the anchor groups whose rows a one-worker run of a
// session shares.
type groupShape struct {
	cut int // groups that share rows
	// wide: some shared W exceeds 64 members while each universe of its
	// group has at most 64; large: some shared group holds a universe of
	// more than 64 members; masked: some shared group holds a branch with
	// a masked candidate edge.
	wide, large, masked bool
}

// anchorGroupShapes replays the anchor groups a one-worker unranged run of
// s forms (its one chunk is the whole raw ordering) and summarises the
// groups that share rows.
func anchorGroupShapes(s *Session) groupShape {
	e := newEngine(s.res, s.red, s.opts, &Stats{}, nil, newRunControl(context.Background(), s.opts))
	configureEngine(e, s.opts)
	e.eo, e.inc = s.eo, s.inc
	var keys []uint64
	for _, eid := range s.eo.Order {
		if s.inc.Count(eid) >= minSharedUniverse {
			keys = append(keys, e.groupKey(eid))
		}
	}
	slices.Sort(keys)
	var sh groupShape
	g := &e.grp
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi]>>32 == keys[lo]>>32 {
			hi++
		}
		if hi-lo > 1 && g.shares(g.plan(e, int32(keys[lo]>>32), keys[lo:hi])) {
			sh.cut++
			largest := 0
			for _, br := range g.br {
				if br.inC == 0 {
					continue
				}
				largest = max(largest, br.hi-br.lo)
				if maskedBranch(s, g.cn[br.lo:br.hi], br.rank) {
					sh.masked = true
				}
			}
			sh.wide = sh.wide || (len(g.w) > 64 && largest <= 64)
			sh.large = sh.large || largest > 64
		}
		g.reset()
		lo = hi
	}
	return sh
}

// maskedBranch reports whether two candidates of a branch of rank r share
// an edge ranked at or below r.
func maskedBranch(s *Session, common []commonNeighbor, r int32) bool {
	for i, u := range common {
		for _, v := range common[i+1:] {
			if u.cand && v.cand {
				if f := s.res.EdgeID(u.w, v.w); f >= 0 && s.eo.Rank[f] <= r {
					return true
				}
			}
		}
	}
	return false
}

// anchorCases are the hand-built anchor-group inputs with the edge order
// they are built for and the shape each must reach. They run without the
// reduction, which would remove their pendants.
var anchorCases = []struct {
	name  string
	g     func() *graph.Graph
	order EdgeOrderKind
	want  func(groupShape) bool
}{
	{"wide-W", func() *graph.Graph { return anchorFanGraph(70, 40, 4, 1) }, EdgeOrderMinDegree,
		func(sh groupShape) bool { return sh.wide }},
	{"large-universe", func() *graph.Graph { return anchorFanGraph(90, 70, 3, 2) }, EdgeOrderMinDegree,
		func(sh groupShape) bool { return sh.large }},
	{"masked", anchorMaskedGraph, EdgeOrderTruss,
		func(sh groupShape) bool { return sh.masked }},
}

// TestAnchorGroupShapes checks that the hand-built inputs reach the group
// shapes they were built for, and that the planted graph of
// TestRecursionAllocFree shares rows, so the equivalence and allocation
// tests cover those paths.
func TestAnchorGroupShapes(t *testing.T) {
	for _, tc := range anchorCases {
		s, err := NewSession(tc.g(), Options{Algorithm: HBBMC, ET: 3, EdgeOrder: tc.order})
		if err != nil {
			t.Fatal(err)
		}
		if sh := anchorGroupShapes(s); !tc.want(sh) {
			t.Errorf("%s: group shapes %+v", tc.name, sh)
		}
	}
	s, err := NewSession(allocGraph(), Options{Algorithm: HBBMC, ET: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sh := anchorGroupShapes(s); sh.cut == 0 {
		t.Errorf("planted graph: no anchor group shares rows")
	}
}

// anchorRun is one query's deterministic outcome: its Stats without the
// clocks (and, for unordered multi-worker delivery, the batch count), an
// order-sensitive hash of its clique sequence when the delivery order is
// deterministic (one worker, or ordered release), an order-free hash of
// its clique set, and, when kept, the cliques.
type anchorRun struct {
	stats    Stats
	seq, set uint64
	cliques  [][]int32
}

// cliqueHash is FNV-1a over a clique's vertex ids.
func cliqueHash(c []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range c {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	return h
}

// anchorModes are the query shapes compared against the ablated row
// source: one and two workers, a BranchDone hook, ordered release, and a
// branch range partition run one range at a time.
var anchorModes = []string{"w1", "w2", "branch_done", "ordered", "ranges"}

func runAnchorMode(t *testing.T, s *Session, mode string, keep bool) anchorRun {
	t.Helper()
	ctx := context.Background()
	var run anchorRun
	var sorted []int32
	visit := func(c []int32) bool {
		run.seq = (run.seq ^ cliqueHash(c)) * 1099511628211
		sorted = append(sorted[:0], c...)
		slices.Sort(sorted)
		run.set += cliqueHash(sorted)
		if keep {
			run.cliques = append(run.cliques, slices.Clone(c))
		}
		return true
	}
	q := QueryOptions{Workers: 2}
	switch mode {
	case "w1":
		q.Workers = 1
	case "branch_done":
		q.BranchDone = func(int, int, int64, int) {}
	case "ordered":
		q.OrderedEmit = true
	case "ranges":
		n := s.NumTopBranches()
		for _, r := range [][2]int{{0, n / 3}, {n / 3, n / 2}, {n / 2, n}} {
			if r[0] == r[1] {
				continue
			}
			part, err := s.EnumerateWith(ctx, QueryOptions{Workers: 1, BranchLo: r[0], BranchHi: r[1]}, visit)
			if err != nil {
				t.Fatal(err)
			}
			MergeStats(&run.stats, part)
		}
	}
	if mode != "ranges" {
		st, err := s.EnumerateWith(ctx, q, visit)
		if err != nil {
			t.Fatal(err)
		}
		run.stats = *st
	}
	run.stats.EnumTime, run.stats.OrderingTime = 0, 0
	if mode == "w2" {
		run.seq, run.stats.EmitBatches = 0, 0
	}
	return run
}

// checkAnchorRows runs s in every anchor mode with rows cut from the
// anchor groups and with every branch walking its own, and requires the
// same clique sequence (or set) and the same Stats. want, when set, is the
// reference clique set every run must report.
func checkAnchorRows(t *testing.T, label string, s *Session, want [][]int32) {
	t.Helper()
	defer func() { ablateAnchorRows = false }()
	for _, mode := range anchorModes {
		ablateAnchorRows = false
		got := runAnchorMode(t, s, mode, want != nil)
		ablateAnchorRows = true
		ref := runAnchorMode(t, s, mode, false)
		ablateAnchorRows = false
		if want != nil {
			if d := verify.Diff(got.cliques, want); d != "" {
				t.Fatalf("%s/%s: %s", label, mode, d)
			}
		}
		if got.seq != ref.seq || got.set != ref.set {
			t.Errorf("%s/%s: cliques differ from the walked rows'", label, mode)
		}
		if got.stats != ref.stats {
			t.Errorf("%s/%s: stats\n got %+v\nwant %+v", label, mode, got.stats, ref.stats)
		}
	}
}

// TestAnchorRowsStandIns compares rows cut from anchor groups with rows
// walked per branch (ablateAnchorRows) on the 16 stand-ins under HBBMC++:
// same clique sequences and Stats in every anchor mode. Under the race
// detector the four largest stand-ins are left out; the non-race run covers
// all 16.
func TestAnchorRowsStandIns(t *testing.T) {
	for _, spec := range dataset.All() {
		if raceEnabled && raceSkipped[spec.Name] {
			continue
		}
		s, err := NewSession(spec.Build(), Defaults())
		if err != nil {
			t.Fatal(err)
		}
		checkAnchorRows(t, spec.Name, s, nil)
	}
}

// TestAnchorRowsEquivalence is TestAnchorRowsStandIns on random and
// planted graphs, on TestWordKernelBoundary's graph with its truss-order
// masked gadget, and on the hand-built group shapes, under options that
// reach the one-word kernel, the generic masked recursion, BK_Ref and
// BK_Rcd, a deeper switch, EBBMC and all three edge orders. Every run must
// also report the reference clique set.
func TestAnchorRowsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2201))
	base := []Options{
		Defaults(),
		{Algorithm: HBBMC, ET: 0},
		{Algorithm: HBBMC, ET: 2, Inner: InnerRcd},
		{Algorithm: HBBMC, ET: 3, EdgeOrder: EdgeOrderDegeneracy},
		{Algorithm: HBBMC, ET: 3, EdgeOrder: EdgeOrderMinDegree},
	}
	// The edge recursion of EBBMC and of a deeper switch is exponential in
	// the planted cliques, so it runs on the random graphs only.
	deep := append(slices.Clone(base),
		Options{Algorithm: HBBMC, ET: 1, SwitchDepth: 2},
		Options{Algorithm: EBBMC, ET: 3})
	inputs := []struct {
		name    string
		g       *graph.Graph
		configs []Options
	}{
		{"random-dense", randomGraph(rng, 90, 1800), deep},
		{"random-sparse", randomGraph(rng, 300, 3000), deep},
		{"planted", gen.NoisyCliques(400, 40, 24, 900, 7), base},
		{"boundary", kernelBoundaryGraph(4), base},
	}
	for _, tc := range anchorCases {
		inputs = append(inputs, struct {
			name    string
			g       *graph.Graph
			configs []Options
		}{tc.name, tc.g(), []Options{
			{Algorithm: HBBMC, ET: 3, EdgeOrder: tc.order},
			{Algorithm: HBBMC, ET: 0, EdgeOrder: tc.order, Inner: InnerRef},
		}})
	}
	for _, in := range inputs {
		want := referenceFor(in.g)
		for _, opts := range in.configs {
			s, err := NewSession(in.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/%v/%v/ET%d/GR=%v/d%d/%v", in.name, opts.Algorithm, opts.Inner, opts.ET, opts.GR, opts.SwitchDepth, opts.EdgeOrder)
			checkAnchorRows(t, label, s, want)
		}
	}
}

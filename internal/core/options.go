// Package core implements the paper's maximal clique enumeration
// algorithms: the vertex-oriented Bron–Kerbosch family (BK, BK_Pivot,
// BK_Ref, BK_Degen, BK_Degree, BK_Rcd, BK_Fac), the edge-oriented framework
// EBBMC, and the hybrid framework HBBMC, together with the orthogonal
// early-termination (ET) and graph-reduction (GR) techniques.
//
// All engines share a two-phase design: a top-level split driven by a
// vertex or edge ordering, and a branch-local recursion over dense bitset
// adjacency. See DESIGN.md §2 for the correctness argument, in particular
// for the masked-adjacency treatment of edge-oriented branches.
//
// A Session caches the preprocessing of one (graph, options) pair and
// serves every query type against it: maximal-clique enumeration
// (Session.Enumerate and friends), the exact maximum-clique solver
// (Session.MaxClique — branch and bound over the same cost-ordered
// branches, greedy-coloring upper bound, atomically shared incumbent;
// maxclique.go), the k largest maximal cliques (Session.TopK — the
// unchanged enumeration through a tightening worst-first heap; topk.go),
// and k-clique counting (Session.CountKCliques — the edge/vertex kernels
// without maximality filtering; kcliquecount.go). ARCHITECTURE.md's
// "Where to add a new job type" section walks through the pattern these
// share.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// Algorithm selects the enumeration framework.
type Algorithm int

const (
	// BK is the original Bron–Kerbosch recursion without pivoting, run on
	// the whole graph as a single branch. Exponential fan-out; only suitable
	// for small graphs.
	BK Algorithm = iota
	// BKPivot is Tomita's pivot algorithm run on the whole graph
	// (O(n·3^{n/3})).
	BKPivot
	// BKRef is Naudé's refined pivot selection. Following [15]'s reduction
	// framework, the implementation splits the top level with the
	// degeneracy ordering and applies the refined pivot inside each branch.
	BKRef
	// BKDegen is Eppstein–Löffler–Strash: degeneracy-ordered top-level
	// split, Tomita pivot inside (O(nδ·3^{δ/3})).
	BKDegen
	// BKDegree splits the top level with the degree ordering (O(hn·3^{h/3})).
	BKDegree
	// BKRcd is the top-down removal algorithm of Li et al. [11]: repeatedly
	// branch at the minimum-degree candidate until the candidate graph is a
	// clique.
	BKRcd
	// BKFac is the fast adaptive pivot algorithm of Jin et al. [18].
	BKFac
	// EBBMC is the pure edge-oriented BK framework with a truss-based edge
	// ordering (Section III-B of the paper).
	EBBMC
	// HBBMC is the hybrid framework (Section III-C): truss-ordered
	// edge-oriented branching for SwitchDepth levels, then vertex-oriented
	// branching with pivoting.
	HBBMC
)

var algorithmNames = map[Algorithm]string{
	BK:       "BK",
	BKPivot:  "BK_Pivot",
	BKRef:    "BK_Ref",
	BKDegen:  "BK_Degen",
	BKDegree: "BK_Degree",
	BKRcd:    "BK_Rcd",
	BKFac:    "BK_Fac",
	EBBMC:    "EBBMC",
	HBBMC:    "HBBMC",
}

func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Flag spellings shared by every front end (cmd/mce flags, the service's
// JSON job options): lower-case, no underscores.
var (
	algorithmFlags = map[string]Algorithm{
		"bk":       BK,
		"bkpivot":  BKPivot,
		"bkref":    BKRef,
		"bkdegen":  BKDegen,
		"bkdegree": BKDegree,
		"bkrcd":    BKRcd,
		"bkfac":    BKFac,
		"ebbmc":    EBBMC,
		"hbbmc":    HBBMC,
	}
	innerFlags = map[string]InnerAlgorithm{
		"pivot": InnerPivot,
		"ref":   InnerRef,
		"rcd":   InnerRcd,
		"fac":   InnerFac,
	}
	edgeOrderFlags = map[string]EdgeOrderKind{
		"truss":      EdgeOrderTruss,
		"degeneracy": EdgeOrderDegeneracy,
		"mindegree":  EdgeOrderMinDegree,
	}
)

func sortedKeys[V any](m map[string]V) string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return strings.Join(ks, "|")
}

// AlgorithmChoices returns the accepted ParseAlgorithm spellings as a
// "a|b|c" list for flag usage strings.
func AlgorithmChoices() string { return sortedKeys(algorithmFlags) }

// InnerChoices returns the accepted ParseInnerAlgorithm spellings.
func InnerChoices() string { return sortedKeys(innerFlags) }

// EdgeOrderChoices returns the accepted ParseEdgeOrder spellings.
func EdgeOrderChoices() string { return sortedKeys(edgeOrderFlags) }

// ParseAlgorithm maps a case-insensitive flag spelling ("hbbmc", "bkdegen",
// ...) to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	if a, ok := algorithmFlags[strings.ToLower(s)]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (choose from %s)", s, AlgorithmChoices())
}

// ParseInnerAlgorithm maps a case-insensitive flag spelling ("pivot",
// "rcd", ...) to an InnerAlgorithm.
func ParseInnerAlgorithm(s string) (InnerAlgorithm, error) {
	if a, ok := innerFlags[strings.ToLower(s)]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("core: unknown inner recursion %q (choose from %s)", s, InnerChoices())
}

// ParseEdgeOrder maps a case-insensitive flag spelling ("truss",
// "degeneracy", "mindegree") to an EdgeOrderKind.
func ParseEdgeOrder(s string) (EdgeOrderKind, error) {
	if k, ok := edgeOrderFlags[strings.ToLower(s)]; ok {
		return k, nil
	}
	return 0, fmt.Errorf("core: unknown edge order %q (choose from %s)", s, EdgeOrderChoices())
}

// InnerAlgorithm selects the vertex-oriented recursion used inside hybrid
// branches (Table III's Ref++/Rcd++/Fac++ ablation).
type InnerAlgorithm int

const (
	// InnerPivot is the classic Tomita pivot — the paper's default, the only
	// choice with the O(δm + τm·3^{τ/3}) guarantee.
	InnerPivot InnerAlgorithm = iota
	// InnerRef applies Naudé's refined pivot inside hybrid branches.
	InnerRef
	// InnerRcd applies BK_Rcd's min-degree removal inside hybrid branches.
	InnerRcd
	// InnerFac applies BK_Fac's adaptive pivot inside hybrid branches.
	InnerFac
)

func (a InnerAlgorithm) String() string {
	switch a {
	case InnerPivot:
		return "Pivot"
	case InnerRef:
		return "Ref"
	case InnerRcd:
		return "Rcd"
	case InnerFac:
		return "Fac"
	}
	return fmt.Sprintf("InnerAlgorithm(%d)", int(a))
}

// EdgeOrderKind selects the edge ordering for EBBMC/HBBMC top-level splits
// (Table VI ablation).
type EdgeOrderKind int

const (
	// EdgeOrderTruss is the truss-based ordering of [19], bounding each
	// top-level candidate graph by τ. The default.
	EdgeOrderTruss EdgeOrderKind = iota
	// EdgeOrderDegeneracy orders edges lexicographically by the degeneracy
	// positions of their endpoints (HBBMC-dgn).
	EdgeOrderDegeneracy
	// EdgeOrderMinDegree orders edges by the minimum endpoint degree
	// (HBBMC-mdg).
	EdgeOrderMinDegree
)

func (k EdgeOrderKind) String() string {
	switch k {
	case EdgeOrderTruss:
		return "truss"
	case EdgeOrderDegeneracy:
		return "degeneracy"
	case EdgeOrderMinDegree:
		return "mindegree"
	}
	return fmt.Sprintf("EdgeOrderKind(%d)", int(k))
}

// UseAllCores is the Options.Workers value that selects one worker per
// available core (GOMAXPROCS).
const UseAllCores = -1

// Options configures an enumeration run. The zero value runs plain BK
// without reductions; use Defaults() for the paper's HBBMC++ configuration.
type Options struct {
	// Algorithm selects the framework.
	Algorithm Algorithm
	// ET is the early-termination threshold t: candidate graphs that are
	// t-plexes with an empty exclusion graph are closed by direct
	// construction. 0 disables ET; the paper's default is 3. Values above 3
	// are rejected (the complement-structure argument needs max degree ≤ 2).
	ET int
	// GR enables the graph-reduction preprocessing of [15].
	GR bool
	// GRMaxDegree caps the residual degree considered by reduction rules
	// (0 = default 2). Degrees above 2 only reduce simplicial vertices.
	GRMaxDegree int
	// SwitchDepth is the number of edge-oriented branching levels in HBBMC
	// before switching to vertex-oriented branching (Table IV's d).
	// 0 = default 1. Ignored by other algorithms.
	SwitchDepth int
	// EdgeOrder selects the edge ordering for EBBMC/HBBMC.
	EdgeOrder EdgeOrderKind
	// Inner selects the vertex-oriented recursion inside HBBMC branches.
	Inner InnerAlgorithm
	// MaxWholeGraphVertices guards the whole-graph algorithms (BK, BKPivot),
	// whose branch universe is the entire vertex set; 0 = default 20000.
	MaxWholeGraphVertices int

	// Workers sets how many workers share a Session query's top-level
	// branches: 0 or 1 runs the query on the caller's goroutine, n > 1 on
	// up to n goroutines (clamped to GOMAXPROCS), and UseAllCores (-1) on
	// one worker per core. The deprecated EnumerateParallel treats its
	// positional workers argument as an override of this field (a ≤ 0
	// argument there falls back to this field, then to all cores); the
	// deprecated sequential Enumerate ignores it.
	Workers int
	// MaxCliques stops the run once this many maximal cliques have been
	// reported (0 = unlimited). A run that hits the cap returns ErrStopped
	// together with the partial Stats; exactly MaxCliques cliques are
	// counted and delivered regardless of worker count (which cliques is
	// nondeterministic under parallelism).
	MaxCliques int64
	// EmitBatchSize is the number of cliques each parallel worker buffers
	// before flushing them to the user callback in one locked batch
	// (0 = default 256, 1 = flush every clique). Larger batches cut lock
	// traffic but delay delivery; the callback is never called
	// concurrently either way. Ignored by the sequential Enumerate.
	EmitBatchSize int
	// ParallelChunkSize fixes the number of top-level branches a parallel
	// worker claims per work-queue pop. 0 (the default) selects guided
	// chunking: chunks start at remaining/(workers·4) and decay to single
	// branches toward the tail of the ordering, where branch costs are
	// most skewed. Ignored by the sequential Enumerate.
	ParallelChunkSize int
	// PhaseTimers accumulates per-phase nanosecond counters into Stats
	// (UniverseTime, PivotTime, ETTime, EmitTime). The clock reads add a
	// few percent to hot branches, so the timers are opt-in; when false
	// the counters stay zero at no measurable cost.
	PhaseTimers bool
}

// Defaults returns the paper's HBBMC++ configuration: hybrid branching with
// truss ordering, early termination at t=3 and graph reduction.
func Defaults() Options {
	return Options{
		Algorithm: HBBMC,
		ET:        3,
		GR:        true,
	}
}

// normalized fills in defaults and validates ranges.
func (o Options) normalized() (Options, error) {
	if o.ET < 0 || o.ET > 3 {
		return o, fmt.Errorf("core: ET threshold %d out of range [0,3]", o.ET)
	}
	if o.SwitchDepth < 0 {
		return o, fmt.Errorf("core: negative SwitchDepth %d", o.SwitchDepth)
	}
	if o.SwitchDepth == 0 {
		o.SwitchDepth = 1
	}
	if o.GRMaxDegree < 0 {
		return o, fmt.Errorf("core: negative GRMaxDegree %d", o.GRMaxDegree)
	}
	if o.MaxWholeGraphVertices == 0 {
		o.MaxWholeGraphVertices = 20000
	}
	if o.Workers < UseAllCores {
		return o, fmt.Errorf("core: invalid Workers %d (use UseAllCores for all cores)", o.Workers)
	}
	if o.MaxCliques < 0 {
		return o, fmt.Errorf("core: negative MaxCliques %d", o.MaxCliques)
	}
	if o.EmitBatchSize < 0 {
		return o, fmt.Errorf("core: negative EmitBatchSize %d", o.EmitBatchSize)
	}
	if o.EmitBatchSize == 0 {
		o.EmitBatchSize = 256
	}
	if o.ParallelChunkSize < 0 {
		return o, fmt.Errorf("core: negative ParallelChunkSize %d", o.ParallelChunkSize)
	}
	if _, ok := algorithmNames[o.Algorithm]; !ok {
		return o, fmt.Errorf("core: unknown algorithm %d", int(o.Algorithm))
	}
	switch o.Inner {
	case InnerPivot, InnerRef, InnerRcd, InnerFac:
	default:
		return o, fmt.Errorf("core: unknown inner algorithm %d", int(o.Inner))
	}
	switch o.EdgeOrder {
	case EdgeOrderTruss, EdgeOrderDegeneracy, EdgeOrderMinDegree:
	default:
		return o, fmt.Errorf("core: unknown edge order %d", int(o.EdgeOrder))
	}
	return o, nil
}

// SessionKey returns a canonical string over the fields that determine a
// Session's cached preprocessing and recursion behavior: the algorithm, the
// ET threshold, the reduction settings, the hybrid switch depth, the edge
// ordering, the inner recursion and the whole-graph guard. Two Options with
// equal SessionKeys can share one Session; the per-run knobs (Workers,
// MaxCliques, EmitBatchSize, ParallelChunkSize, PhaseTimers) are excluded —
// they vary per query through QueryOptions. The key is computed on the
// normalized options, so default spellings (SwitchDepth 0 vs 1) collide as
// they should; invalid options yield a key that simply never matches a
// buildable session.
func (o Options) SessionKey() string {
	if n, err := o.normalized(); err == nil {
		o = n
	}
	return fmt.Sprintf("algo=%s,et=%d,gr=%t,grmax=%d,d=%d,eo=%s,inner=%s,maxwhole=%d",
		o.Algorithm, o.ET, o.GR, o.GRMaxDegree, o.SwitchDepth, o.EdgeOrder, o.Inner, o.MaxWholeGraphVertices)
}

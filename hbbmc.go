package hbbmc

import (
	"context"
	"io"
	"math"

	"github.com/graphmining/hbbmc/internal/core"
	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/kclique"
	"github.com/graphmining/hbbmc/internal/order"
	"github.com/graphmining/hbbmc/internal/truss"
)

// Graph is an immutable simple undirected graph in CSR form. Build one with
// NewBuilder, FromEdges or the loaders below.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// Edge is an undirected edge used by FromEdges.
type Edge = graph.Edge

// NewBuilder returns a Builder for a graph with at least n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges constructs a Graph from an edge list (self-loops and duplicates
// are dropped).
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// LoadEdgeList parses whitespace-separated "u v" lines ('#'/'%' comments).
func LoadEdgeList(r io.Reader) (*Graph, error) { return graph.LoadEdgeList(r) }

// LoadEdgeListFile opens and parses an edge-list file.
func LoadEdgeListFile(path string) (*Graph, error) { return graph.LoadEdgeListFile(path) }

// LoadDIMACS parses the DIMACS clique format ("p edge n m" / "e u v").
func LoadDIMACS(r io.Reader) (*Graph, error) { return graph.LoadDIMACS(r) }

// Format identifies a graph input format (edge list, DIMACS, MatrixMarket,
// METIS, .hbg binary snapshot) for the multi-format loader.
type Format = graph.Format

// Format constants for LoadOptions.Format.
const (
	FormatAuto         = graph.FormatAuto
	FormatEdgeList     = graph.FormatEdgeList
	FormatDIMACS       = graph.FormatDIMACS
	FormatMatrixMarket = graph.FormatMatrixMarket
	FormatMETIS        = graph.FormatMETIS
	FormatBinary       = graph.FormatBinary
)

// LoadOptions configures Load/LoadFile/LoadFileCached.
type LoadOptions = graph.LoadOptions

// ParseFormat maps a flag spelling ("auto", "edgelist", "dimacs", "mtx",
// "metis", "hbg", ...) to a Format.
func ParseFormat(s string) (Format, error) { return graph.ParseFormat(s) }

// DetectFormat sniffs the format of (decompressed) input data, with path as
// a hint for formats without a content signature.
func DetectFormat(data []byte, path string) Format { return graph.DetectFormat(data, path) }

// Load reads a graph in any supported format from r, decompressing gzip
// transparently (detected by magic bytes).
func Load(r io.Reader, opts LoadOptions) (*Graph, error) { return graph.Load(r, opts) }

// LoadFile reads a graph file in any supported format, using the extension
// as a detection hint and decompressing gzip transparently.
func LoadFile(path string, opts LoadOptions) (*Graph, error) { return graph.LoadFile(path, opts) }

// LoadFileCached is LoadFile backed by a binary .hbg sidecar snapshot
// (graph.CachePath): a fresh sidecar is loaded instead of parsing, and a
// parse writes the sidecar best-effort so the next load skips it.
func LoadFileCached(path string, opts LoadOptions) (*Graph, bool, error) {
	return graph.LoadFileCached(path, opts)
}

// ParseEdgeList parses an in-memory edge list on up to workers goroutines
// (0 = all cores), producing the same graph as LoadEdgeList.
func ParseEdgeList(data []byte, workers int) (*Graph, error) {
	return graph.ParseEdgeList(data, workers)
}

// LoadBinary reads a .hbg binary CSR snapshot (see Graph.SaveBinary).
func LoadBinary(r io.Reader) (*Graph, error) { return graph.LoadBinary(r) }

// LoadBinaryFile opens and parses a .hbg snapshot file.
func LoadBinaryFile(path string) (*Graph, error) { return graph.LoadBinaryFile(path) }

// Options configures an enumeration run; see the field documentation in
// internal/core for the full contract of each knob.
type Options = core.Options

// Stats aggregates the counters of one run (clique count, branch counts,
// early-termination ratios, work counters, timings).
type Stats = core.Stats

// MergeStats folds src's per-worker counters into dst — the aggregation the
// distributed coordinator applies across the Stats of remote branch-range
// shards. Coordinator-only fields (wall-clock spans, graph properties, the
// shard counters) are not folded; the caller seeds them. See core.Stats.
func MergeStats(dst, src *Stats) { core.MergeStats(dst, src) }

// RampUpChunk is the shared guided ramp-up chunk policy of the cost-ordered
// branch schedulers: the in-process parallel work queue and the distributed
// shard splitter (internal/distrib) both shape their claims with it, so a
// remote shard stream decomposes work exactly like local workers do.
func RampUpChunk(pos, remaining, consumers int) int {
	return core.RampUpChunk(pos, remaining, consumers)
}

// Algorithm selects the enumeration framework.
type Algorithm = core.Algorithm

// Framework constants, mirroring the paper's algorithm names.
const (
	BK       = core.BK       // original Bron–Kerbosch (whole graph)
	BKPivot  = core.BKPivot  // Tomita pivoting (whole graph)
	BKRef    = core.BKRef    // Naudé's refined pivoting
	BKDegen  = core.BKDegen  // Eppstein–Löffler–Strash degeneracy split
	BKDegree = core.BKDegree // degree-ordered split
	BKRcd    = core.BKRcd    // top-down min-degree removal
	BKFac    = core.BKFac    // adaptive pivot maintenance
	EBBMC    = core.EBBMC    // pure edge-oriented branching
	HBBMC    = core.HBBMC    // the paper's hybrid framework
)

// InnerAlgorithm selects the vertex recursion inside hybrid branches.
type InnerAlgorithm = core.InnerAlgorithm

// Inner recursion constants for Options.Inner.
const (
	InnerPivot = core.InnerPivot
	InnerRef   = core.InnerRef
	InnerRcd   = core.InnerRcd
	InnerFac   = core.InnerFac
)

// EdgeOrderKind selects the edge ordering for EBBMC/HBBMC.
type EdgeOrderKind = core.EdgeOrderKind

// Edge-ordering constants for Options.EdgeOrder.
const (
	EdgeOrderTruss      = core.EdgeOrderTruss
	EdgeOrderDegeneracy = core.EdgeOrderDegeneracy
	EdgeOrderMinDegree  = core.EdgeOrderMinDegree
)

// DefaultOptions returns the paper's strongest configuration, HBBMC++:
// hybrid branching, early termination at t=3, graph reduction.
func DefaultOptions() Options { return core.Defaults() }

// ParseAlgorithm maps a case-insensitive flag spelling ("hbbmc",
// "bkdegen", ...) to an Algorithm; AlgorithmChoices lists the accepted
// spellings for usage strings.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// ParseInnerAlgorithm maps a flag spelling ("pivot", "rcd", ...) to an
// InnerAlgorithm.
func ParseInnerAlgorithm(s string) (InnerAlgorithm, error) { return core.ParseInnerAlgorithm(s) }

// ParseEdgeOrder maps a flag spelling ("truss", "degeneracy", "mindegree")
// to an EdgeOrderKind.
func ParseEdgeOrder(s string) (EdgeOrderKind, error) { return core.ParseEdgeOrder(s) }

// AlgorithmChoices, InnerChoices and EdgeOrderChoices return the accepted
// parse spellings as "a|b|c" lists for flag usage strings.
func AlgorithmChoices() string { return core.AlgorithmChoices() }

// InnerChoices returns the accepted ParseInnerAlgorithm spellings.
func InnerChoices() string { return core.InnerChoices() }

// EdgeOrderChoices returns the accepted ParseEdgeOrder spellings.
func EdgeOrderChoices() string { return core.EdgeOrderChoices() }

// Enumerate runs the configured algorithm and invokes emit once per maximal
// clique. The slice passed to emit is reused between calls; copy it if you
// retain it. emit may be nil to only collect statistics.
//
// Deprecated: Enumerate redoes the O(δm) preprocessing on every call and
// cannot be cancelled or stopped early. Use NewSession and
// Session.Enumerate, which cache the preprocessing across queries and
// accept a context.Context and a stop-capable Visitor.
func Enumerate(g *Graph, opts Options, emit func(clique []int32)) (*Stats, error) {
	return core.Enumerate(g, opts, emit)
}

// Count returns the number of maximal cliques without materialising them.
//
// Deprecated: use NewSession and Session.Count.
func Count(g *Graph, opts Options) (int64, *Stats, error) { return core.Count(g, opts) }

// Collect returns every maximal clique as a fresh slice. Convenient for
// small graphs; large graphs should stream through Enumerate.
//
// Deprecated: use NewSession and Session.Collect.
func Collect(g *Graph, opts Options) ([][]int32, *Stats, error) { return core.Collect(g, opts) }

// Profile captures the structural parameters the paper's analysis depends
// on: the degeneracy δ, the truss parameter τ, the edge density ρ = m/n and
// the h-index.
type Profile struct {
	N, M      int
	Delta     int     // degeneracy δ
	Tau       int     // truss parameter τ (max support at truss-peeling time)
	Rho       float64 // edge density m/n
	HIndex    int
	Triangles int64
}

// ProfileGraph computes a Profile (O(δm) dominated by the truss peeling).
func ProfileGraph(g *Graph) Profile {
	dec := truss.Decompose(g)
	return Profile{
		N:         g.NumVertices(),
		M:         g.NumEdges(),
		Delta:     order.DegeneracyOrdering(g).Value,
		Tau:       dec.Tau,
		Rho:       g.Density(),
		HIndex:    order.HIndex(g),
		Triangles: truss.CountTriangles(g),
	}
}

// HybridConditionHolds reports whether δ ≥ max{3, τ + 3·lnρ/ln3}, the
// condition under which HBBMC's O(δm + τm·3^{τ/3}) bound beats the best
// known O(nδ·3^{δ/3}) (Remarks after Theorem 2).
func (p Profile) HybridConditionHolds() bool {
	if p.Rho <= 0 {
		return p.Delta >= 3
	}
	threshold := float64(p.Tau) + 3*math.Log(p.Rho)/math.Log(3)
	if threshold < 3 {
		threshold = 3
	}
	return float64(p.Delta) >= threshold
}

// GenerateER samples an Erdős–Rényi G(n,m) graph (Appendix D's ER model).
func GenerateER(n, m int, seed int64) *Graph { return gen.ER(n, m, seed) }

// GenerateBA grows a Barabási–Albert graph with k edges per arrival
// (Appendix D's BA model).
func GenerateBA(n, k int, seed int64) *Graph { return gen.BA(n, k, seed) }

// GenerateSBM samples a planted-partition graph with the given number of
// communities of the given size.
func GenerateSBM(communities, size int, pIn, pOut float64, seed int64) *Graph {
	return gen.SBM(gen.SBMConfig{Communities: communities, Size: size, PIn: pIn, POut: pOut}, seed)
}

// GenerateMoonMoser returns the 3^s-maximal-clique worst-case family.
func GenerateMoonMoser(s int) *Graph { return gen.MoonMoser(s) }

// EnumerateParallel is Enumerate with the top-level branches distributed
// over up to `workers` goroutines (0 = Options.Workers, then GOMAXPROCS).
// A dynamic work queue hands out the branches in descending estimated cost
// — single branches at the expensive head, chunks growing toward the cheap
// tail — and each worker buffers its cliques, flushing batches of 256 to
// emit under one lock. emit is therefore never called concurrently, but
// cliques arrive in nondeterministic order and slightly after discovery.
//
// Every ordered algorithm parallelises, including HBBMC at any
// SwitchDepth; only whole-graph BK/BKPivot fall back to the sequential
// driver. Stats.Workers records the effective worker count and
// Stats.ParallelFallback the fallback reason, if any.
//
// Deprecated: the positional workers argument is folded into
// Options.Workers. Use NewSession and Session.Enumerate (or
// Session.EnumerateParallel), which also cache the preprocessing across
// queries and accept a context.Context and a stop-capable Visitor.
func EnumerateParallel(g *Graph, opts Options, workers int, emit func(clique []int32)) (*Stats, error) {
	return core.EnumerateParallel(g, opts, workers, emit)
}

// CountParallel is Count on the parallel driver: it returns the number of
// maximal cliques without materialising them, using up to `workers`
// goroutines (0 = Options.Workers, then GOMAXPROCS).
//
// Deprecated: set Options.Workers and use NewSession with Session.Count.
func CountParallel(g *Graph, opts Options, workers int) (int64, *Stats, error) {
	stats, err := core.EnumerateParallel(g, opts, workers, nil)
	if err != nil {
		if stats != nil {
			return stats.Cliques, stats, err
		}
		return 0, nil, err
	}
	return stats.Cliques, stats, nil
}

// ListKCliques emits every k-clique of g exactly once via the edge-oriented
// EBBkC strategy ([19]) that HBBMC's top level is built on, and returns the
// count. The slice passed to emit is reused; emit may be nil to count only.
func ListKCliques(g *Graph, k int, emit func(clique []int32)) (int64, error) {
	return kclique.List(g, k, emit)
}

// CountKCliques returns the number of k-cliques of g. It is a convenience
// wrapper over Session.CountKCliques with the default options: build a
// Session directly to amortise the preprocessing across queries, pick the
// worker count, or cancel via a context.
func CountKCliques(g *Graph, k int) (int64, error) {
	s, err := core.NewSession(g, core.Defaults())
	if err != nil {
		return 0, err
	}
	n, _, err := s.CountKCliques(context.Background(), k, QueryOptions{})
	return n, err
}

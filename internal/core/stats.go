package core

import (
	"fmt"
	"time"
)

// Stats aggregates counters for one enumeration run. The branch counters
// mirror the quantities reported in the paper's Tables IV and V. The JSON
// struct tags make runs machine-readable (durations serialise as
// nanoseconds); String renders a one-line human summary.
type Stats struct {
	// Cliques is the number of maximal cliques reported — delivered to the
	// Visitor when one was set, counted when not — on every path, including
	// runs stopped early by a Visitor, Options.MaxCliques or cancellation.
	Cliques int64 `json:"cliques"`
	// MaxCliqueSize is the size ω of the largest clique found. When a
	// parallel run is stopped by its Visitor, it may reflect a clique
	// another worker found but never delivered.
	MaxCliqueSize int `json:"max_clique_size"`

	// Calls counts every recursive branch evaluation (vertex- plus
	// edge-oriented); VertexCalls and EdgeCalls split it by phase.
	Calls       int64 `json:"calls"`
	VertexCalls int64 `json:"vertex_calls"`
	EdgeCalls   int64 `json:"edge_calls"`
	// TopBranches counts the branches created by the top-level split.
	TopBranches int64 `json:"top_branches"`

	// PlexBranches is b of Table V: branches whose candidate graph is a
	// t-plex for the configured threshold.
	PlexBranches int64 `json:"plex_branches"`
	// EarlyTerminations is b0 of Table V: branches actually closed by the
	// early-termination construction (t-plex candidate graph, empty
	// exclusion graph and, in hybrid branches, no masked candidate edge).
	EarlyTerminations int64 `json:"early_terminations"`
	// ETCliques is the number of cliques found by early termination. Like
	// MaxCliqueSize it counts at discovery: when a parallel run is stopped
	// by its Visitor, it may include cliques that were never delivered and
	// can then exceed Cliques.
	ETCliques int64 `json:"et_cliques"`

	// ReducedVertices and ReductionCliques summarise the GR preprocessing.
	// The reduction runs once on the coordinator before workers fork, so
	// worker stats never carry them.
	//hbbmc:nomerge coordinator-only, set by the preprocessing pass
	ReducedVertices int `json:"reduced_vertices"`
	//hbbmc:nomerge coordinator-only, set by the preprocessing pass
	ReductionCliques int64 `json:"reduction_cliques"`
	// SuppressedLeaves counts residual-graph cliques rejected because a
	// removed vertex dominated them.
	SuppressedLeaves int64 `json:"suppressed_leaves"`

	// Delta, Tau and HIndex are the structural parameters of the (reduced)
	// graph when the run computed them (δ for vertex orderings, τ for the
	// truss ordering, h for the degree ordering). They describe the shared
	// input graph, not per-worker progress, and are seeded into the
	// coordinator's stats before the merge.
	//hbbmc:nomerge graph property computed once during ordering
	Delta int `json:"delta"`
	//hbbmc:nomerge graph property computed once during ordering
	Tau int `json:"tau"`
	//hbbmc:nomerge graph property computed once during ordering
	HIndex int `json:"h_index"`

	// OrderingTime covers reduction plus ordering construction; EnumTime
	// covers the recursive enumeration. Total run time is their sum.
	// Session queries report zero OrderingTime — the preprocessing was paid
	// once in NewSession (see Session.PrepTime). Both are wall-clock spans
	// measured by the coordinator around the whole run, not per-worker
	// durations, so summing them across workers would inflate them.
	//hbbmc:nomerge coordinator wall-clock, measured around the fork/join
	OrderingTime time.Duration `json:"ordering_time_ns"`
	//hbbmc:nomerge coordinator wall-clock, measured around the fork/join
	EnumTime time.Duration `json:"enum_time_ns"`

	// Work counters: deterministic, always-on counts of the engine's two
	// row-level costs, for runs that are not stopped early and at any
	// worker count (Session.MaxClique excepted: its work depends on when
	// the shared incumbent improves). UniverseEntries counts the
	// incidence entries, adjacency entries or vertex-pair probes a branch's
	// own walk reads to fill its branch-local full adjacency rows, and
	// UniverseBits the row bits set in those rows. An edge branch counts
	// the triangle counts of its row-bearing members' cheaper side edges,
	// also when its rows are cut from its anchor group's (anchor.go)
	// instead: the group's shared walk depends on how chunks group the
	// branches, the per-branch count does not. PivotWords counts the
	// 64-bit row words intersected with the candidate set by the pivot and
	// candidate-degree scans.
	// Early termination and delivery are counted by EarlyTerminations,
	// ETCliques and Cliques.
	UniverseEntries int64 `json:"universe_entries"`
	UniverseBits    int64 `json:"universe_bits"`
	PivotWords      int64 `json:"pivot_words"`

	// Workers is the number of goroutines that actually executed the
	// enumeration: 1 for a one-worker run (including parallel fallbacks),
	// the effective post-clamp count for parallel runs.
	//hbbmc:nomerge set once by the coordinator after clamping
	Workers int `json:"workers"`
	// ParallelFallback is non-empty when a multi-worker request ran on one
	// worker, and states why (whole-graph algorithm, single worker).
	ParallelFallback string `json:"parallel_fallback,omitempty"`
	// EmitBatches counts the batched-emit flushes of a parallel run, or
	// its released chunks under ordered emission (0 when emit was nil or
	// the run had one worker). The sink counts globally; the coordinator
	// copies the total after the join.
	//hbbmc:nomerge read from the shared emit sink after workers join
	EmitBatches int64 `json:"emit_batches"`

	// Workload-query counters (Session.MaxClique, Session.TopK and
	// Session.CountKCliques). BnBCalls counts the branch-and-bound
	// recursion nodes of a maximum-clique query and BnBPrunes the subtrees
	// cut by the greedy-coloring upper bound or the shared incumbent;
	// IncumbentUpdates counts improvements of the incumbent clique
	// (including the heuristic seed). KCliques is the k-clique count of a
	// CountKCliques query — workers sum their per-branch partial counts, so
	// the field merges like Cliques does.
	BnBCalls         int64 `json:"bnb_calls,omitempty"`
	BnBPrunes        int64 `json:"bnb_prunes,omitempty"`
	IncumbentUpdates int64 `json:"incumbent_updates,omitempty"`
	KCliques         int64 `json:"k_cliques,omitempty"`

	// Shard counters of the distributed coordinator (internal/distrib and
	// the mced -peers mode): branch-range descriptors dispatched to peer
	// nodes, dispatch attempts that failed and were re-dispatched or
	// re-split, and descriptors abandoned after the retry budget. They
	// describe the fan-out itself, not any single node's enumeration, so
	// worker shards never carry them and merging them would double-count
	// across coordinator tiers.
	//hbbmc:nomerge distributed-coordinator only, set after the shard fan-out
	ShardsDispatched int64 `json:"shards_dispatched,omitempty"`
	//hbbmc:nomerge distributed-coordinator only, set after the shard fan-out
	ShardsRetried int64 `json:"shards_retried,omitempty"`
	//hbbmc:nomerge distributed-coordinator only, set after the shard fan-out
	ShardsFailed int64 `json:"shards_failed,omitempty"`
}

// MergeStats folds src's per-worker counters into dst — the cross-shard
// aggregation entry point of the distributed coordinator, which sums the
// Stats of remote branch-range shards exactly like the driver sums
// per-worker Stats. Fields annotated //hbbmc:nomerge (wall-clock spans,
// graph properties, the shard counters themselves) are left for the caller
// to seed; see the field comments in Stats.
func MergeStats(dst, src *Stats) { dst.merge(src) }

// ETRatio returns b0/b of Table V (0 when no plex branches were seen).
func (s *Stats) ETRatio() float64 {
	if s.PlexBranches == 0 {
		return 0
	}
	return float64(s.EarlyTerminations) / float64(s.PlexBranches)
}

// TotalTime returns ordering plus enumeration time.
func (s *Stats) TotalTime() time.Duration {
	return s.OrderingTime + s.EnumTime
}

// String renders a one-line summary of the run.
func (s *Stats) String() string {
	return fmt.Sprintf("cliques=%d ω=%d branches=%d calls=%d et=%d/%d workers=%d ordering=%v enum=%v",
		s.Cliques, s.MaxCliqueSize, s.TopBranches, s.Calls,
		s.EarlyTerminations, s.PlexBranches, s.Workers,
		s.OrderingTime.Round(time.Microsecond), s.EnumTime.Round(time.Microsecond))
}

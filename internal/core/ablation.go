package core

// Ablation switches for the engineering decisions layered on top of the
// paper's algorithms. They exist so the benchmark suite can measure each
// optimisation's contribution (see ablation_bench_test.go); all default to
// false (optimisation enabled) and are only mutated from benchmarks, which
// run sequentially.
var (
	// ablateTinyBranch disables the inline resolution of top-level edge
	// branches with at most two common neighbors.
	ablateTinyBranch bool
	// ablateMaskFree disables the branch-level "no masked candidate edge"
	// detection that downgrades hybrid branches to the unmasked recursion.
	ablateMaskFree bool
	// ablateMaskDrop disables the per-node hereditary mask dropping inside
	// the pivot/refined recursions.
	ablateMaskDrop bool
	// ablateXDomination disables the exclusion-dominator subtree prune in
	// the pivot recursion.
	ablateXDomination bool
	// ablateCostOrder disables the descending-cost ordering of top-level
	// branches in the driver's schedule, reverting to raw edge/vertex
	// ordering positions.
	ablateCostOrder bool
	// ablateWordKernel sends HBBMC edge branches of at most 128 members,
	// masked ones included, through the generic bitset path instead of the
	// word kernels.
	ablateWordKernel bool
	// ablateAnchorRows makes every edge branch of an anchor group walk its
	// own rows instead of cutting them from the group's; the branches still
	// run in grouped order.
	ablateAnchorRows bool
)

package core

import (
	"context"

	"github.com/graphmining/hbbmc/internal/graph"
)

// EnumerateParallel runs the configured algorithm with the top-level
// branches distributed over worker goroutines. It is an extension beyond
// the paper's (sequential) evaluation, exploiting the same property the
// parallel MCE literature does: top-level branches of the ordered
// frameworks are independent.
//
// Branches are handed out through a dynamic work queue: an atomic cursor
// over the cost-ordered schedule, claiming single branches at the
// expensive head and chunks that grow toward the cheap tail (RampUpChunk),
// so a worker that draws a cheap region keeps pulling work instead of
// idling — the load imbalance that static striding suffers on power-law
// graphs.
//
// emit is called from multiple goroutines but never concurrently; each
// worker buffers its cliques and flushes them in batches of 256 under one
// lock, so the clique order is nondeterministic and a clique may be
// reported a short time after it was found. Workers resolve as workers arg
// > Options.Workers > GOMAXPROCS, clamped to GOMAXPROCS.
//
// All ordered algorithms parallelise, including HBBMC at any SwitchDepth;
// only the whole-graph algorithms (BK, BKPivot) consist of a single
// top-level branch and run on one worker. The effective worker count and
// any fallback reason are recorded in Stats.Workers and
// Stats.ParallelFallback.
//
// Deprecated: the positional workers argument is folded into
// Options.Workers. Use NewSession and Session.Enumerate (or
// Session.EnumerateParallel), which also cache the preprocessing across
// queries and accept a context and a stop-capable Visitor.
func EnumerateParallel(g *graph.Graph, opts Options, workers int, emit func([]int32)) (*Stats, error) {
	if workers <= 0 {
		workers = opts.Workers
	}
	if workers <= 0 {
		// Legacy contract: with no explicit count anywhere, use all cores.
		workers = UseAllCores
	}
	s, err := NewSession(g, opts)
	if err != nil {
		return nil, err
	}
	parOpts := s.opts
	parOpts.Workers = workers
	stats, err := s.enumerate(context.Background(), parOpts, adaptEmit(emit))
	stats.OrderingTime = s.prepTime
	if workers == 1 && stats.ParallelFallback == "" {
		// An explicit workers=1 request through this parallel entry point is
		// a recorded fallback, not a silent one.
		stats.ParallelFallback = "single worker"
	}
	return stats, err
}

// configureEngine applies the per-algorithm recursion selection to a
// driver's engine.
func configureEngine(e *engine, opts Options) {
	switch opts.Algorithm {
	case BK:
		e.inner = innerPlain
	case BKPivot, BKDegen, BKDegree:
		e.inner = InnerPivot
	case BKRef:
		e.inner = InnerRef
	case BKRcd:
		e.inner = InnerRcd
	case BKFac:
		e.inner = InnerFac
	case HBBMC:
		e.inner = opts.Inner
		e.switchDepth = opts.SwitchDepth
	case EBBMC:
		e.inner = InnerPivot // unused: the recursion stays edge-oriented
		e.switchDepth = neverSwitch
	}
}

// merge folds worker counters into s.
func (s *Stats) merge(o *Stats) {
	s.Cliques += o.Cliques
	if o.MaxCliqueSize > s.MaxCliqueSize {
		s.MaxCliqueSize = o.MaxCliqueSize
	}
	s.Calls += o.Calls
	s.VertexCalls += o.VertexCalls
	s.EdgeCalls += o.EdgeCalls
	s.TopBranches += o.TopBranches
	s.PlexBranches += o.PlexBranches
	s.EarlyTerminations += o.EarlyTerminations
	s.ETCliques += o.ETCliques
	s.SuppressedLeaves += o.SuppressedLeaves
	s.BnBCalls += o.BnBCalls
	s.BnBPrunes += o.BnBPrunes
	s.IncumbentUpdates += o.IncumbentUpdates
	s.KCliques += o.KCliques
	s.UniverseEntries += o.UniverseEntries
	s.UniverseBits += o.UniverseBits
	s.PivotWords += o.PivotWords
}

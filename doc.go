// Package hbbmc is a maximal clique enumeration (MCE) library implementing
// the hybrid branch-and-bound framework HBBMC of Wang, Yu & Long,
// "Maximal Clique Enumeration with Hybrid Branching and Early Termination"
// (ICDE 2025), together with the complete family of Bron–Kerbosch baselines
// it is evaluated against.
//
// # Quick start
//
//	g, err := hbbmc.LoadEdgeListFile("graph.txt")
//	if err != nil { ... }
//	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
//	if err != nil { ... }
//	for c := range sess.Cliques(ctx) {
//		fmt.Println(c) // one maximal clique; copy the slice to retain it
//	}
//
// DefaultOptions selects HBBMC++ — hybrid branching over a truss-based edge
// ordering, early termination for 3-plex candidate graphs, and graph
// reduction — the configuration the paper shows dominating the state of the
// art. Every published baseline (BK, BK_Pivot, BK_Ref, BK_Degen, BK_Degree,
// BK_Rcd, BK_Fac, and the pure edge-oriented EBBMC) is available through
// Options.Algorithm, and the paper's ablation knobs (early-termination
// threshold t, hybrid switch depth d, edge-ordering choice, inner vertex
// recursion) are all exposed.
//
// # Sessions: cache the preprocessing, query many times
//
// NewSession computes the O(δm) preprocessing — graph reduction, the
// truss/degeneracy/degree ordering, the triangle incidence — exactly once
// and serves any number of queries against it: Session.Enumerate (streaming
// Visitor), Session.Count, Session.Collect, the Session.Cliques range
// iterator, and Session.EnumerateParallel. Sessions are immutable and safe
// for concurrent queries, which makes them the natural unit for a service
// answering many clique queries over the same graph — and the repository
// ships that service: the mced daemon (cmd/mced, built on internal/service)
// keeps a registry of warm sessions under an LRU byte budget
// (Session.MemoryEstimate) and serves enumeration jobs over an HTTP JSON
// API with NDJSON clique streaming and worker-slot admission control. See
// the README's "Serving" section for the curl walkthrough. Query Stats
// report zero OrderingTime; the cached cost is Session.PrepTime.
//
// The daemon also scales past one machine: started with -peers, mced runs
// as a coordinator that splits a job's top-level branches into shard
// descriptors (internal/distrib) — each carrying the dataset and ordering
// fingerprints plus a branch interval — dispatches them to peer daemons
// over the same /v1/jobs API, merges the NDJSON streams exactly-once, and
// re-splits stragglers when a peer stalls or dies. Peers are probed via
// /v1/info and a fingerprint mismatch is a hard 409, so a shard can never
// silently run against the wrong graph. See the README's "Distributed
// serving" section.
//
// # Job types beyond enumeration
//
// A Session answers more than maximal-clique enumeration; every query
// type shares the same cached preprocessing, cost-ordered branch schedule
// and allocation-free kernels:
//
//   - Session.MaxClique solves the exact maximum-clique problem by branch
//     and bound over the session's branches: a greedy-coloring upper
//     bound prunes branches that cannot beat the incumbent (seeded from
//     the reduction's cliques and a greedy heuristic), and parallel
//     workers share the incumbent size atomically so any worker's find
//     tightens every other worker's bound. Stats.BnBCalls,
//     Stats.BnBPrunes and Stats.IncumbentUpdates report the search shape;
//     the witness clique is the return value.
//   - Session.TopK returns the k largest maximal cliques (size
//     descending, then lexicographic) by running the unchanged
//     enumeration through a bounded worst-first heap whose rejection
//     threshold tightens as it fills.
//   - Session.CountKCliques counts the k-vertex cliques (not necessarily
//     maximal) on the session's edge- or vertex-oriented kernels,
//     reporting the count in Stats.KCliques.
//
// The mce command exposes these as -maxclique, -topk and -kcliques; the
// mced daemon as the job "type" field (max_clique, top_k, kclique_count —
// see internal/service). The README's "Job types" table summarises all
// five types across the three surfaces.
//
// Per-request variation on a shared session goes through QueryOptions:
// Session.EnumerateWith and Session.CountWith override the worker count
// and the MaxCliques budget for one query without rebuilding — or
// fragmenting the cache of — the preprocessing.
// Options.SessionKey canonicalises the session-defining fields for exactly
// this purpose: two Options with equal keys can share one Session.
//
// # Cancellation and early stops
//
// Every session query takes a context.Context, honoured cooperatively at
// top-branch granularity: after a cancellation or deadline the query
// returns within one top-level branch (one edge or vertex of the ordering),
// yielding the partial Stats and an error wrapping ctx.Err(). Two more ways
// to stop early:
//
//   - a Visitor returning false ends the run with ErrStopped and no further
//     Visitor calls;
//   - Options.MaxCliques caps the run at a clique budget — exactly that many
//     cliques are counted and delivered regardless of worker count, again
//     with ErrStopped.
//
// The whole-graph algorithms BK and BKPivot run as a single branch, so they
// only observe cancellation before that branch starts.
//
// # Parallel enumeration
//
// Every query type runs through one top-level driver: workers claim
// top-level branch positions from an atomic work queue and run the query's
// per-branch kernel on each. With one worker (the default) the driver runs
// on the caller's goroutine; Options.Workers > 1 (or UseAllCores) runs it
// on that many goroutines, which share the branches in descending
// estimated-cost order — single branches at the expensive head, growing
// chunks toward the cheap tail — so stragglers cannot pin the run to one
// slow worker. Every ordered algorithm parallelises, including HBBMC at
// any SwitchDepth; only the whole-graph BK/BKPivot run on one worker, and
// Stats.Workers / Stats.ParallelFallback record what actually ran.
//
// The delivery contract under parallelism: the Visitor is never invoked
// concurrently, but it runs on internal worker goroutines rather than the
// caller's (so goroutine-local mechanisms — recover around the query,
// runtime.Goexit, testing.T.Fatalf — do not reach across), cliques arrive
// in nondeterministic order, and they are delivered in per-worker batches
// (Options.EmitBatchSize, default 256), so a clique may be reported
// slightly after its discovery. QueryOptions.OrderedEmit trades that for
// delivery in schedule order, chunk by chunk. As with one worker, the
// slice passed to the Visitor is reused — copy it to retain it.
//
// # Performance architecture
//
// The enumeration core is engineered around word-parallel bitset kernels
// and allocation-free branch state:
//
//   - Fused kernels. Candidate-degree and pivot scans run on fused
//     intersect+popcount kernels (4-way unrolled) and iterate bitsets
//     word-by-word instead of per set bit, so a recursion node costs one
//     streaming pass per candidate row rather than separate
//     intersect-then-count passes threaded through per-bit calls.
//   - Epoch-stamped universes. Each top-level branch installs a local
//     vertex universe; the residual→local id map is epoch-stamped (one
//     packed word per vertex) and membership is pre-filtered through a
//     dense bitmap (one bit per vertex, cache-resident), so installing and
//     probing a universe is O(universe) with no per-branch teardown.
//   - Zero-reset recursion state. Candidate/exclusion sets, candidate-edge
//     lists and per-level degree counts are carved from mark/release
//     arenas; the hot path allocates nothing in steady state, and sets that
//     are fully overwritten skip the zeroing pass.
//   - Incremental degree maintenance. BK_Rcd's removal loop decrements the
//     candidate degrees of the removed vertex's neighbors instead of
//     rescanning every candidate row per step.
//   - Cost-ordered parallel scheduling. Parallel queries hand out top-level
//     branches in descending estimated-cost order (triangle count per edge,
//     later-neighbor count per vertex) with ramp-up chunking — single
//     branches at the expensive head, growing chunks toward the cheap tail
//     — so one late big branch cannot strand the run on a single worker.
//   - Anchor-grouped edge branches. Enumerate, count and top_k hand each
//     claimed chunk of branches to the engine, which runs the edge
//     branches with at least 16 common neighbours grouped by anchor, the
//     lower-degree endpoint of their edge, in decreasing rank. A group
//     walks the anchor's triangle lists once into a full and a live row
//     matrix over the union of its universes and cuts each branch's rows
//     from them with word operations, instead of walking one triangle
//     list per member and branch.
//   - Word kernels. An HBBMC edge branch whose universe has at most 128
//     members, masked or not, runs the Tomita pivot recursion on candidate
//     and exclusion sets of one or two machine words passed by value, with
//     two-word adjacency rows, making the bitset path's choices at every
//     node. The partial clique holds original vertex ids, so a reported
//     clique is mapped only in its last few vertices and copied once for
//     the Visitor.
//
// Every query accounts its hot-path work in counts rather than time:
// Stats.UniverseEntries and Stats.UniverseBits count the entries a
// branch's own walk reads and the row bits set to build its branch-local
// adjacency rows (an edge branch whose rows are cut from its anchor
// group's counts the walk it would have made alone), and
// Stats.PivotWords counts the row words the pivot and degree scans
// intersect with the candidate set. The counters are deterministic at any
// worker count, and internal/core/testdata/work.golden.json pins them for
// the 16 stand-ins. `go test ./internal/bitset -bench BenchmarkKernel`
// compares the fused kernels against their composed forms.
//
// # Input formats and the binary snapshot cache
//
// LoadFile reads a graph in any supported format, auto-detected from
// content and file extension (and transparently gunzipped when the gzip
// magic bytes lead the file):
//
//   - SNAP/plain edge lists: "u v" per line, '#'/'%' comments, an ignored
//     third column (LoadEdgeList; ParseEdgeList parses in-memory input on
//     all cores by sharding it at line boundaries)
//   - DIMACS clique/coloring files: "p edge n m" / "e u v" (LoadDIMACS)
//   - MatrixMarket coordinate files: "%%MatrixMarket matrix coordinate ...",
//     1-based indices, values ignored, any symmetry
//   - METIS/Chaco adjacency files, detected by the .metis/.graph extension
//     (the format has no content signature); vertex/edge weights are
//     honored per the fmt code and skipped
//   - .hbg binary CSR snapshots ("HBGF" magic)
//
// The .hbg snapshot is this library's versioned binary format: the CSR
// offsets and adjacency of a parsed graph plus a CRC-32C, written by
// Graph.SaveBinary and reloaded by LoadBinary in a single sequential read —
// one to two orders of magnitude faster than re-parsing text, since
// sorting, deduplication and edge-id assignment are already encoded.
// LoadFileCached wires the two together: it keeps a "<input>.hbg" sidecar
// next to any text input (invalidated by modification time) so every load
// after the first skips parsing entirely. The mce and mceverify commands
// expose this as -cache, mcebench as -cache <dir> for its synthetic
// datasets, and mcegen writes snapshots directly when -out ends in .hbg.
//
// # Migrating from the one-shot functions
//
// The top-level Enumerate, EnumerateParallel, Count, CountParallel and
// Collect predate sessions; they remain as thin deprecated wrappers that
// build a throwaway session per call, so existing code keeps working
// unchanged (including EnumerateParallel's positional workers argument,
// now folded into Options.Workers). New code should hold a Session:
//
//	stats, err := hbbmc.Enumerate(g, opts, emit)        // before
//
//	sess, err := hbbmc.NewSession(g, opts)              // after
//	stats, err := sess.Enumerate(ctx, func(c []int32) bool {
//		emit(c)
//		return true // false would stop the run
//	})
//
// # Structure
//
// The root package is a thin facade over the internal engine:
//
//   - internal/core — the branch-and-bound engines, sessions, ET/GR,
//     and the workload queries (MaxClique, TopK, CountKCliques)
//   - internal/service — the mced daemon: dataset registry, streaming
//     jobs, admission control, distributed coordinator
//   - internal/distrib — shard descriptors and range planning shared by
//     the local scheduler and the coordinator
//   - internal/graph — immutable CSR graphs and loaders
//   - internal/order, internal/truss — degeneracy and truss orderings
//   - internal/plex — direct enumeration from 2-/3-plex candidate graphs
//   - internal/reduce — graph-reduction preprocessing
//   - internal/gen — synthetic graph generators (ER, BA, SBM, ...)
//   - internal/kclique — EBBkC k-clique listing, the paper's substrate [19]
//   - internal/analysis — custom static analyzers enforcing the engine's
//     invariants (allocation-free hot path, arena windows, Stats merge
//     coverage, mutex guards, stop-latch polling)
//
// The cmd/ directory ships six tools: mce (all five job types, with
// -timeout and -maxcliques bounds), mced (the resident enumeration
// daemon), mcegen
// (generate workloads), mcebench (reproduce the paper's tables and
// figures, optionally as JSON lines), mceverify (audit a clique file
// against its graph) and mcelint (the static-analysis suite; run it with
// `go tool mcelint ./...` — see the README's "Static analysis" section
// for the //hbbmc:noalloc and //hbbmc:guardedby annotation conventions).
package hbbmc

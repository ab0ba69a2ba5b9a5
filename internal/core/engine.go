package core

import (
	"math"

	"github.com/graphmining/hbbmc/internal/bitset"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/plex"
	"github.com/graphmining/hbbmc/internal/reduce"
	"github.com/graphmining/hbbmc/internal/truss"
)

// innerPlain is the internal sentinel for the pivot-less BK recursion.
const innerPlain InnerAlgorithm = -1

// neverSwitch is the switchDepth sentinel that keeps EBBMC's recursion
// edge-oriented forever; it exceeds any reachable recursion depth.
const neverSwitch = math.MaxInt32

// engine holds the state of one enumeration run over the residual graph.
// Each top-level branch installs a local universe (a relabelled vertex set
// with bitset adjacency rows); the per-algorithm recursions then operate on
// C/X bitsets over that universe.
type engine struct {
	g           *graph.Graph // residual graph
	red         *reduce.Result
	opts        Options
	stats       *Stats
	emitFn      Visitor
	rc          *runControl
	inner       InnerAlgorithm
	switchDepth int

	// Local universe of the current top-level branch. The residual→local
	// map is epoch-stamped: local[v] packs (epoch, id) in one word and an
	// entry is live only while its epoch matches the engine's. Installing a
	// universe bumps the epoch, which invalidates every stale entry at once —
	// engine setup stays O(universe), with no teardown pass and no O(n)
	// refill.
	verts      []int32      // local id -> residual id
	local      []uint64     // residual id -> epoch<<32 | local id
	localEpoch uint32       // current universe's stamp
	univ       bitset.Set   // residual-id membership bitmap of the universe
	adjG       []bitset.Set // full residual adjacency within the universe
	adjH       []bitset.Set // masked adjacency (edge rank > branch base rank)
	masked     bool

	// Full and masked rows of a universe of at most 64 members, one word
	// each (wordrec.go); wordRows marks the members whose rows were built.
	wordG, wordH [64]uint64
	wordRows     uint64

	rowArena *bitset.Arena // adjacency rows; reset per top-level branch
	setArena *bitset.Arena // recursion sets; mark/release per node
	cntArena i32Arena      // per-level int32 scratch; mark/release per node

	S       []int32          // current partial clique (residual ids)
	resBuf  []int32          // residual-id assembly buffer for emits
	emitBuf []int32          // original-id buffer handed to emitFn
	listBuf []int32          // scratch for materialised candidate lists
	sideBuf []int32          // per-candidate side-edge ids for incidence row fills
	cnBuf   []commonNeighbor // per-branch common-neighbor scratch
	edgeBuf []localEdge      // edgeRec candidate-edge scratch, stacked across levels
	maskRow []bitset.Set     // switchToVertex masked-row table (never nested)

	// Early-termination scratch (see et.go).
	cntBuf       []int32 // per-local-id candidate counts from the caller's scan
	plexScratch  plex.Scratch
	compA, compB []int32
	compVisited  []bool
	fBuf, nonF   []int32
	walkBuf      []int32
	// etEmit adapts plex.Scratch.Emit to e.emit. Built once in newEngine:
	// constructing the closure at the emitPlexDirect call site would
	// allocate on every early termination.
	etEmit func([]int32)

	// Edge-ordering context for EBBMC/HBBMC.
	eo  truss.EdgeOrder
	inc *truss.Incidence
}

// newEngine builds one per-goroutine engine. rc is required: the engine's
// emit and recursion paths rely on the query's shared run control for the
// stop latch and the clique budget.
func newEngine(res *graph.Graph, red *reduce.Result, opts Options, stats *Stats, emit Visitor, rc *runControl) *engine {
	e := &engine{
		g:        res,
		red:      red,
		opts:     opts,
		stats:    stats,
		emitFn:   emit,
		rc:       rc,
		local:    make([]uint64, res.NumVertices()),
		univ:     bitset.New(res.NumVertices()),
		rowArena: bitset.NewArena(0),
		setArena: bitset.NewArena(0),
	}
	e.etEmit = func(cl []int32) { e.emit(cl) }
	return e
}

// localOf returns the local id of residual vertex v in the current universe,
// or -1 when v is not a member. The epoch compare makes stale entries from
// earlier universes read as absent without any per-branch cleanup.
func (e *engine) localOf(v int32) int32 {
	x := e.local[v]
	if uint32(x>>32) != e.localEpoch {
		return -1
	}
	return int32(uint32(x))
}

// bumpEpoch advances the universe stamp. On the (theoretical) uint32 wrap
// the whole map is cleared so entries stamped a full cycle ago cannot read
// as live.
func (e *engine) bumpEpoch() {
	e.localEpoch++
	if e.localEpoch == 0 {
		clear(e.local)
		e.localEpoch = 1
	}
}

// setUniverse installs vs (residual ids) as the branch-local universe and
// builds adjacency rows for its first rowCount members. When baseRank >= 0
// a masked adjacency adjH is built alongside, containing only edges whose
// rank exceeds baseRank.
//
// The edge-oriented top level orders each universe candidates-first and
// passes rowCount = |C|: exclusion vertices need no rows of their own (every
// refinement reads candidate rows, and the X-domination checks fold
// candidate rows over X), which skips the dominant share of the build cost
// on triangle-dense graphs.
//
// Rows are built by whichever of two strategies is cheaper for this branch:
// scanning each member's full adjacency (good when members have small
// degrees) or probing member pairs with binary searches (good for small
// universes around high-degree hubs).
func (e *engine) setUniverse(vs []int32, baseRank int32, rowCount int) {
	degSum := e.installUniverse(vs, baseRank, rowCount)
	if pairwiseCheaper(rowCount, len(vs), degSum) {
		e.fillRowsPairwise(baseRank, rowCount)
	} else {
		e.fillRowsByScan(baseRank, rowCount)
	}
}

// withXRows is the shared break-even heuristic of the vertex and edge
// enumeration kernels: exclusion members get adjacency rows of their own
// (restoring full Tomita pivot quality over C ∪ X) only when the branch is
// recursion-heavy — enough candidates absolutely, and candidates not
// dwarfed by the exclusion side whose rows would dominate the build cost.
func withXRows(inC, universe int) bool {
	return inC >= 12 && 4*inC >= universe
}

// pairwiseCheaper is the row-filling strategy choice of setUniverse:
// ~8 comparisons per binary-search probe is the break-even estimate against
// scanning the full adjacency of every row-bearing member. The product is
// computed in int64 — rowCount·universe·8 overflows 32-bit ints already at
// ~16k-vertex universes, and a wrapped negative estimate would silently
// force the pairwise strategy on exactly the branches where it is most
// expensive.
func pairwiseCheaper(rowCount, universe int, degSum int64) bool {
	return int64(rowCount)*int64(universe)*8 < degSum
}

// installUniverse performs the bookkeeping shared by all row-filling
// strategies: local-id mapping, arena resets and zeroed rows for the first
// rowCount members. It returns the degree sum of the row-bearing members.
func (e *engine) installUniverse(vs []int32, baseRank int32, rowCount int) int64 {
	k := len(vs)
	// The membership bitmap is the cache-resident first-level filter of the
	// row-fill probes (1 bit per residual vertex vs 8 bytes in the id map);
	// clear the previous universe's bits before vs overwrites verts.
	for _, v := range e.verts {
		e.univ.Unset(int(v))
	}
	e.verts = append(e.verts[:0], vs...)
	e.masked = baseRank >= 0
	e.rowArena.Reset(k)
	e.setArena.Reset(k)
	e.cntArena.reset()
	e.bumpEpoch()
	if cap(e.adjG) < k {
		e.adjG = make([]bitset.Set, k)
		e.adjH = make([]bitset.Set, k)
	}
	e.adjG = e.adjG[:k]
	e.adjH = e.adjH[:k]
	degSum := int64(0)
	stamp := uint64(e.localEpoch) << 32
	for i, v := range vs {
		e.local[v] = stamp | uint64(uint32(i))
		e.univ.Set(int(v))
		if i < rowCount {
			degSum += int64(e.g.Degree(v))
		}
	}
	e.carveRows(rowCount)
	return degSum
}

// carveRows gives the first rowCount universe members zeroed arena rows
// (masked ones too in a masked universe) and the rest none.
//
//hbbmc:noalloc
func (e *engine) carveRows(rowCount int) {
	for i := range e.verts {
		e.adjG[i], e.adjH[i] = nil, nil
		if i < rowCount {
			e.adjG[i] = e.rowArena.Get()
			if e.masked {
				e.adjH[i] = e.rowArena.Get()
			}
		}
	}
}

// fillRowsFromIncidence builds the candidate rows of an edge branch from
// the triangle incidence lists of each candidate's side edge: for side edge
// (s,w) every triangle (s,w,x) names a neighbor x of w inside N(s) ⊇
// universe, together with the edge id (w,x) that carries the mask rank.
// The work per candidate is its side-edge support — never more than its
// degree, and usually far less on hub-heavy graphs.
//
//hbbmc:noalloc
func (e *engine) fillRowsFromIncidence(baseRank int32, rowCount int) {
	for i := 0; i < rowCount; i++ {
		rowG := e.adjG[i]
		rowH := e.adjH[i]
		lo, hi, wIsDst := e.sideRange(i)
		set := int64(0)
		for t := lo; t < hi; t++ {
			third := e.inc.Third(t)
			if !e.univ.Has(int(third)) {
				continue
			}
			j := e.localOf(third)
			rowG.Set(int(j))
			set++
			wx := e.inc.CoSrc(t)
			if wIsDst {
				wx = e.inc.CoDst(t)
			}
			if e.eo.Rank[wx] > baseRank {
				rowH.Set(int(j))
			}
		}
		e.stats.UniverseEntries += int64(hi - lo)
		e.stats.UniverseBits += set
	}
}

// sideRange returns the incidence range of member i's side edge (s,w) and
// whether w is its destination, in which case a triangle's CoDst names
// the edge (w,x) that carries the mask rank; otherwise CoSrc does.
//
//hbbmc:noalloc
func (e *engine) sideRange(i int) (lo, hi int32, wIsDst bool) {
	se := e.sideBuf[i]
	_, dst := e.g.EdgeEndpoints(se)
	lo, hi = e.inc.Range(se)
	return lo, hi, e.verts[i] == dst
}

//
//hbbmc:noalloc
func (e *engine) fillRowsByScan(baseRank int32, rowCount int) {
	for i := 0; i < rowCount; i++ {
		v := e.verts[i]
		rowG := e.adjG[i]
		rowH := e.adjH[i]
		nbrs := e.g.Neighbors(v)
		eids := e.g.IncidentEdgeIDs(v)
		set := int64(0)
		for t, w := range nbrs {
			// Bitmap first: most neighbors are outside the universe, and the
			// bit probe stays in cache where the id-map load would miss.
			if !e.univ.Has(int(w)) {
				continue
			}
			j := e.localOf(w)
			rowG.Set(int(j))
			set++
			if e.masked && e.eo.Rank[eids[t]] > baseRank {
				rowH.Set(int(j))
			}
		}
		e.stats.UniverseEntries += int64(len(nbrs))
		e.stats.UniverseBits += set
	}
}

//
//hbbmc:noalloc
func (e *engine) fillRowsPairwise(baseRank int32, rowCount int) {
	k := len(e.verts)
	for i := 0; i < rowCount; i++ {
		set := int64(0)
		for j := i + 1; j < k; j++ {
			eid := e.g.EdgeID(e.verts[i], e.verts[j])
			if eid < 0 {
				continue
			}
			e.adjG[i].Set(j)
			set++
			if j < rowCount {
				e.adjG[j].Set(i)
				set++
			}
			if e.masked && e.eo.Rank[eid] > baseRank {
				e.adjH[i].Set(j)
				if j < rowCount {
					e.adjH[j].Set(i)
				}
			}
		}
		e.stats.UniverseEntries += int64(k - 1 - i)
		e.stats.UniverseBits += set
	}
}

// maskFreeCandidates reports whether no candidate-candidate edge of the
// current universe is masked. The candidates occupy local ids [0, inC), so
// the check compares each candidate's full and masked rows on that prefix.
//
//hbbmc:noalloc
func (e *engine) maskFreeCandidates(inC int) bool {
	fullWords := inC / 64
	restBits := uint(inC % 64)
	for i := 0; i < inC; i++ {
		rowG, rowH := e.adjG[i], e.adjH[i]
		for w := 0; w < fullWords; w++ {
			if rowG[w] != rowH[w] {
				return false
			}
		}
		if restBits != 0 {
			mask := (uint64(1) << restBits) - 1
			if (rowG[fullWords]^rowH[fullWords])&mask != 0 {
				return false
			}
		}
	}
	return true
}

// rankOfLocal returns the edge-order rank of the residual edge between two
// local universe vertices, or -1 when the edge does not exist.
func (e *engine) rankOfLocal(i, j int) int32 {
	eid := e.g.EdgeID(e.verts[i], e.verts[j])
	if eid < 0 {
		return -1
	}
	return e.eo.Rank[eid]
}

// emit reports the clique formed by the current partial clique S plus the
// given local universe vertices. It applies the removed-dominator filter of
// the graph reduction, consumes the clique budget, maps residual ids back
// to original ids and invokes the user visitor; a visitor returning false
// latches the run's stop flag.
//
//hbbmc:noalloc
func (e *engine) emit(extraLocal []int32) {
	// A latched stop must silence every later emit, including ones from the
	// same recursion frame (ET plex bursts, tiny-branch multi-emits) that
	// no entry-level stop check can intercept — the visitor contract
	// promises no calls after it returned false.
	if e.rc.stopped() {
		return
	}
	e.resBuf = append(e.resBuf[:0], e.S...)
	for _, li := range extraLocal {
		e.resBuf = append(e.resBuf, e.verts[li])
	}
	if e.red.NumRemoved > 0 && e.red.HasRemovedDominator(e.resBuf) {
		e.stats.SuppressedLeaves++
		return
	}
	if !e.rc.take() {
		return
	}
	e.stats.Cliques++
	if len(e.resBuf) > e.stats.MaxCliqueSize {
		e.stats.MaxCliqueSize = len(e.resBuf)
	}
	if e.emitFn != nil {
		e.emitBuf = e.emitBuf[:0]
		for _, r := range e.resBuf {
			e.emitBuf = append(e.emitBuf, e.red.OrigID[r])
		}
		if !e.emitFn(e.emitBuf) {
			e.rc.stop.Store(true)
		}
	}
}

// emitSet is emit for a bitset of local vertices.
func (e *engine) emitSet(set bitset.Set) {
	e.listBuf = set.AppendTo(e.listBuf[:0])
	e.emit(e.listBuf)
}

// tryEarlyTerminate applies the early-termination construction of Section
// IV. The caller supplies the candidate-set size and the minimum full-graph
// degree inside C, both computed during its pivot scan. adjH is the masked
// adjacency of the surrounding recursion (nil when unmasked).
//
// Returns true when the branch was closed (all its maximal cliques have been
// emitted).
//
//hbbmc:noalloc
func (e *engine) tryEarlyTerminate(adjH []bitset.Set, C, X bitset.Set, cSize, minDeg int) bool {
	if !e.plexBranch(cSize, minDeg) || !X.IsEmpty() {
		return false
	}
	// A masked candidate edge would make cliques of G[C] differ from
	// cliques of the branch's candidate graph; the construction only
	// applies when the two adjacencies agree on C. Masked rows are subsets
	// of the full rows, so agreement is exactly "no masked candidate edge"
	// — one word-level XOR pass instead of two popcount passes per
	// candidate.
	return (adjH == nil || !e.maskedEdgesIn(adjH, C)) && e.emitPlexDirect(C, cSize)
}

// plexBranch is the t-plex test of early termination (b of Table V): a
// branch whose cSize candidates have minimum degree minDeg inside C is
// counted, and qualifies for the construction once its exclusion set is
// empty too.
//
//hbbmc:noalloc
func (e *engine) plexBranch(cSize, minDeg int) bool {
	t := e.opts.ET
	if t == 0 || cSize == 0 || minDeg < cSize-t {
		return false
	}
	e.stats.PlexBranches++
	return true
}

// vertexRec dispatches to the configured vertex-oriented recursion. Every
// recursion polls the run's stop latch on entry, so a stopped run (visitor
// returned false, clique budget exhausted, or a cancellation observed at a
// top-branch check) unwinds without evaluating further branches.
//
//hbbmc:noalloc
func (e *engine) vertexRec(adjH []bitset.Set, C, X bitset.Set) {
	switch e.inner {
	case innerPlain:
		e.plainRec(adjH, C, X)
	case InnerPivot:
		e.pivotRec(adjH, C, X)
	case InnerRef:
		e.refRec(adjH, C, X)
	case InnerRcd:
		e.rcdRec(adjH, C, X)
	case InnerFac:
		e.facRec(adjH, C, X)
	}
}

// deriveChild computes the sub-branch sets for branching at local vertex v:
// childC gets the candidates that remain candidates (masked adjacency when
// in a hybrid branch) and childX the exclusion vertices, including
// candidates reachable from v only through a masked edge — those cannot
// join the clique but still block maximality.
//
//hbbmc:noalloc
func (e *engine) deriveChild(adjH []bitset.Set, C, X bitset.Set, v int, childC, childX, tmp bitset.Set) {
	if adjH == nil {
		childC.AndInto(C, e.adjG[v])
		childX.AndInto(X, e.adjG[v])
		return
	}
	childC.AndInto(C, adjH[v])
	childX.AndInto(X, e.adjG[v])
	tmp.AndInto(C, e.adjG[v])
	tmp.AndNotWith(adjH[v])
	childX.OrWith(tmp)
}

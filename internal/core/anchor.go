package core

import (
	"math/bits"
	"slices"

	"github.com/graphmining/hbbmc/internal/bitset"
)

// This file runs a chunk of edge branches grouped by anchor. An edge
// branch (a,b) gives a row to members w of its universe U, the common
// neighbourhood N(a) ∩ N(b), and built alone each row walks the triangle
// list of one of w's side edges: summed over the branches, work that grows
// with the number of 4-cliques rather than the paper's O(δm) top level.
// The branches of one chunk that share an anchor, the lower-degree endpoint
// of their edge, all have universes inside N(anchor). The engine walks the
// anchor's triangle lists once to build the rows of W, the union of those
// universes, and cuts every branch's rows from them with word operations
// (the per-subproblem bitset reuse of San Segundo et al.'s bit-parallel
// MCE, PAPERS.md).
//
// Two matrices span W: full holds the edges inside W, live only those
// ranked above the branch being run. A group runs in decreasing rank, so
// each edge inside W enters live once, when the rank falls below its own.
// A branch of rank r then reads the full row of member w as full[w] ∩ U
// and its masked row (edges ranked above r) as live[w] ∩ U, remapped to
// the branch's candidates-first local ids: the same rows its own walk
// builds, so each branch runs exactly as it would alone.

// minSharedUniverse is the fewest common neighbours an edge branch needs to
// wait for its anchor group. Smaller branches build rows that cost little
// to walk, and deferring them (an anchor lookup, a sort key, a group plan)
// costs more than sharing saves. On the stand-ins, the branches of at
// least 16 common neighbours carry 97–98% of the own-row walk on DG, SK,
// CN and OR, and are 0–15% of the universe-building branches on NA, FB,
// SH, DE, YO, PO and SO.
const minSharedUniverse = 16

// maxAnchorMembers bounds |W|: the matrices hold |W|²/64 words each and the
// queued live insertions up to |W|². A larger group's branches walk their
// own rows.
const maxAnchorMembers = 1024

// anchorGroup is an engine's scratch for the anchor groups of its chunks.
// Every slice grows to the largest group the engine meets and is reused.
type anchorGroup struct {
	// keys are the chunk's deferred branches as anchor<<32 | ^rank, so
	// sorting them groups each anchor's branches in decreasing rank.
	keys []uint64
	br   []groupBranch
	cn   []commonNeighbor // the group's branches' common neighbours, in turn

	// W: idx maps a residual id to its W index plus one, 0 outside W (only
	// W's entries are set, and reset clears them); walk sums the triangle
	// counts of the row-bearing members' side edges.
	idx  []int32
	w    []groupMember
	walk int64

	// words is the uint64 words per matrix row; rows holds each W member's
	// full row followed by its live row.
	words int
	rows  []uint64
	// pend queues the live insertions of edges ranked between the group's
	// last and first branch as row<<16 | column, bucketed by the first
	// branch ranked below the edge: due[k] ends the insertions due before
	// branch k, and next is the first one not yet inserted. walked holds
	// them in walk order, each with its bucket in the upper half.
	pend   []uint32
	due    []int32
	next   int
	walked []uint64

	// The current branch over W: its members (sets[:words]), its
	// candidates (sets[words:]) and each member's local id, also as the
	// one-member word2 the word kernels' cut ORs in.
	sets []uint64
	lid  []int32
	bit  []word2
}

// groupMember is one member of W: its residual id, its side edge through
// the anchor, and whether some branch of the group gives it a row.
type groupMember struct {
	v, side int32
	row     bool
}

// groupBranch is one branch of an anchor group: its edge and rank, and its
// common neighbours cn[lo:hi] with their candidate count.
type groupBranch struct {
	eid, rank int32
	lo, hi    int
	inC       int
}

// keyRank decodes the rank of an anchorGroup key.
func keyRank(key uint64) int32 { return int32(^uint32(key)) }

// anchor returns the endpoint of edge eid with the lower degree, the lower
// id on a tie.
func (e *engine) anchor(eid int32) int32 {
	a, b := e.g.EdgeEndpoints(eid)
	if da, db := e.g.Degree(a), e.g.Degree(b); db < da || (db == da && b < a) {
		return b
	}
	return a
}

// groupKey is edge eid's key in anchorGroup.keys.
func (e *engine) groupKey(eid int32) uint64 {
	return uint64(e.anchor(eid))<<32 | uint64(^uint32(e.eo.Rank[eid]))
}

// runEdgeChunk runs the edge branches at positions [begin, end), mapped
// through sched when the run iterates the schedule. Branches with fewer
// than minSharedUniverse common neighbours run at once, in position order.
// The rest run grouped by anchor, anchors in increasing id and each group
// in decreasing rank. Cancellation and early stops are observed once per
// branch.
//
//hbbmc:ctxpoll
func (e *engine) runEdgeChunk(sched []int32, begin, end int) {
	g := &e.grp
	g.keys = g.keys[:0]
	for i := begin; i < end; i++ {
		if e.rc.halted() {
			return
		}
		p := i
		if sched != nil {
			p = int(sched[i])
		}
		eid := e.eo.Order[p]
		if e.inc.Count(eid) < minSharedUniverse {
			e.runEdgeBranch(eid)
			continue
		}
		g.keys = append(g.keys, e.groupKey(eid))
	}
	slices.Sort(g.keys)
	for lo := 0; lo < len(g.keys); {
		if e.rc.halted() {
			return
		}
		hi := lo + 1
		for hi < len(g.keys) && g.keys[hi]>>32 == g.keys[lo]>>32 {
			hi++
		}
		if hi-lo == 1 {
			e.runEdgeBranch(e.eo.Order[keyRank(g.keys[lo])])
		} else {
			e.runAnchorGroup(int32(g.keys[lo]>>32), g.keys[lo:hi])
		}
		lo = hi
	}
}

// runAnchorGroup runs the deferred branches of anchor a, keys in
// decreasing rank, each on rows cut from the group's when the group shares
// them and on its own walk otherwise.
//
//hbbmc:ctxpoll
func (e *engine) runAnchorGroup(a int32, keys []uint64) {
	g := &e.grp
	cut := g.shares(g.plan(e, a, keys))
	if cut {
		g.build(e)
	}
	for k := range g.br {
		if e.rc.halted() {
			break
		}
		br := &g.br[k]
		if cut {
			g.advance(k)
		}
		e.openEdgeBranch(br.eid)
		if br.inC > 0 {
			e.runEdgeUniverse(g.cn[br.lo:br.hi], br.inC, br.rank, cut)
		}
	}
	g.reset()
}

// plan reads the common neighbours of the group's branches into g.br and
// g.cn and collects W from the branches that install a universe. It
// returns the incidence entries those branches' own rows walk and the
// number of such branches.
//
//hbbmc:noalloc
func (g *anchorGroup) plan(e *engine, a int32, keys []uint64) (own int64, shared int) {
	if n := e.g.NumVertices(); len(g.idx) < n { //hbbmc:allowalloc sized once per engine, on its first group
		g.idx = make([]int32, n)
	}
	g.br, g.cn = g.br[:0], g.cn[:0]
	for _, key := range keys {
		br := groupBranch{rank: keyRank(key), lo: len(g.cn)}
		br.eid = e.eo.Order[br.rank]
		g.cn, br.inC = e.edgeCommon(br.eid, br.rank, g.cn)
		br.hi = len(g.cn)
		g.br = append(g.br, br)
		if br.inC == 0 {
			continue
		}
		shared++
		src, _ := e.g.EdgeEndpoints(br.eid)
		common := g.cn[br.lo:br.hi]
		xRows := rowCountOf(br.inC, len(common)) > br.inC
		for _, cn := range common {
			j := g.idx[cn.w] - 1
			if j < 0 {
				// The side edge through the anchor: (src,w) is CoSrc.
				side := cn.ea
				if a != src {
					side = cn.eb
				}
				j = int32(len(g.w))
				g.idx[cn.w] = j + 1
				g.w = append(g.w, groupMember{v: cn.w, side: side})
			}
			if !cn.cand && !xRows {
				continue
			}
			if m := &g.w[j]; !m.row {
				m.row = true
				g.walk += int64(e.inc.Count(m.side))
			}
			own += int64(e.inc.Count(e.cheapSide(cn)))
		}
	}
	return own, shared
}

// shares reports whether a planned group builds shared rows: at least two
// of its branches install a universe, W is within maxAnchorMembers, and
// the walk of the anchor's side edges to W's row-bearing members is
// shorter than the walks of the branches' own rows (own entries). Both
// counts are incidence list lengths, read before anything is walked.
func (g *anchorGroup) shares(own int64, shared int) bool {
	return shared >= 2 && !ablateAnchorRows && len(g.w) <= maxAnchorMembers && g.walk < own
}

// build walks the triangle lists of the anchor's edges to W's row-bearing
// members into full, inserts into live the edges ranked above the group's
// first branch, and queues those ranked above its last.
//
//hbbmc:noalloc
func (g *anchorGroup) build(e *engine) {
	n := len(g.w)
	g.words = (n + 63) / 64
	if size := 2 * n * g.words; cap(g.rows) < size { //hbbmc:allowalloc amortised growth to the largest group seen
		g.rows = make([]uint64, size)
	}
	if cap(g.lid) < n { //hbbmc:allowalloc amortised growth to the largest group seen
		g.lid = make([]int32, n)
		g.bit = make([]word2, n)
		g.sets = make([]uint64, 2*g.words)
	}
	g.rows, g.sets, g.lid, g.bit = g.rows[:2*n*g.words], g.sets[:2*g.words], g.lid[:n], g.bit[:n]
	clear(g.rows)
	first, last := g.br[0].rank, g.br[len(g.br)-1].rank
	g.walked = g.walked[:0]
	for j, m := range g.w {
		if !m.row {
			continue
		}
		_, dst := e.g.EdgeEndpoints(m.side)
		wIsDst := m.v == dst
		ra := e.eo.Rank[m.side]
		full, live := g.rowOf(int32(j))
		lo, hi := e.inc.Range(m.side)
		for t := lo; t < hi; t++ {
			x := g.idx[e.inc.Third(t)] - 1
			if x < 0 {
				continue
			}
			bit := uint64(1) << (x & 63)
			full[x>>6] |= bit
			wx := e.inc.CoSrc(t)
			if wIsDst {
				wx = e.inc.CoDst(t)
			}
			switch q := e.eo.Rank[wx]; {
			case q > first || q > min(ra, e.eo.Rank[g.w[x].side]):
				live[x>>6] |= bit
			case q > last:
				g.walked = append(g.walked, uint64(g.dueBefore(q))<<32|uint64(j)<<16|uint64(x))
			}
		}
	}
	g.bucket()
}

// dueBefore returns the first branch of the group ranked below q, by
// binary search over the decreasing ranks.
//
//hbbmc:noalloc
func (g *anchorGroup) dueBefore(q int32) int {
	lo, hi := 0, len(g.br)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.br[mid].rank < q {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// bucket lays the walked insertions out in pend by bucket, with one
// counting pass, and leaves in due[k] the end of bucket k. Inside a bucket
// the order does not matter: a bit set is a bit set.
//
//hbbmc:noalloc
func (g *anchorGroup) bucket() {
	n := len(g.br)
	if cap(g.due) < n { //hbbmc:allowalloc amortised growth to the largest group seen
		g.due = make([]int32, n)
	}
	if cap(g.pend) < len(g.walked) { //hbbmc:allowalloc amortised growth to the largest group seen
		g.pend = make([]uint32, len(g.walked))
	}
	g.due, g.pend, g.next = g.due[:n], g.pend[:len(g.walked)], 0
	clear(g.due)
	for _, p := range g.walked {
		g.due[p>>32]++
	}
	start := int32(0)
	for k, c := range g.due {
		g.due[k], start = start, start+c
	}
	for _, p := range g.walked {
		k := p >> 32
		g.pend[g.due[k]] = uint32(p)
		g.due[k]++
	}
}

// advance inserts into live the queued edges due before branch k: those
// ranked above it.
//
//hbbmc:noalloc
func (g *anchorGroup) advance(k int) {
	for ; g.next < int(g.due[k]); g.next++ {
		p := g.pend[g.next]
		_, live := g.rowOf(int32(p >> 16))
		x := p & 0xffff
		live[x>>6] |= 1 << (x & 63)
	}
}

// reset clears W's entries in idx for the next group.
func (g *anchorGroup) reset() {
	for _, m := range g.w {
		g.idx[m.v] = 0
	}
	g.w, g.walk = g.w[:0], 0
}

// enter marks the members and the first inC candidates of the installed
// universe vs over W and records each member's local id.
//
//hbbmc:noalloc
func (g *anchorGroup) enter(vs []int32, inC int) {
	clear(g.sets)
	mask, cand := g.sets[:g.words], g.sets[g.words:]
	for i, v := range vs {
		j := g.idx[v] - 1
		g.lid[j], g.bit[j] = int32(i), bit2[i&(maxWordUniverse-1)]
		mask[j>>6] |= 1 << (j & 63)
		if i < inC {
			cand[j>>6] |= 1 << (j & 63)
		}
	}
}

// rowOf returns the full and live rows of W member j.
func (g *anchorGroup) rowOf(j int32) (full, live []uint64) {
	at := 2 * int(j) * g.words
	return g.rows[at : at+g.words], g.rows[at+g.words : at+2*g.words]
}

// cutWord returns row ∩ U as a word2 over the current branch's local ids,
// the word kernels' form of cutInto.
//
//hbbmc:noalloc
func (g *anchorGroup) cutWord(row []uint64) word2 {
	var out word2
	for wi, m := range g.sets[:g.words] {
		for b := row[wi] & m; b != 0; b &= b - 1 {
			out = out.or(g.bit[wi<<6|bits.TrailingZeros64(b)])
		}
	}
	return out
}

// cutInto sets row ∩ U in dst over the current branch's local ids and
// returns the number of bits set.
//
//hbbmc:noalloc
func (g *anchorGroup) cutInto(dst bitset.Set, row []uint64) int64 {
	set := int64(0)
	for wi, m := range g.sets[:g.words] {
		for b := row[wi] & m; b != 0; b &= b - 1 {
			dst.Set(int(g.lid[wi<<6|bits.TrailingZeros64(b)]))
			set++
		}
	}
	return set
}

// maskedIn reports whether a member's full and live rows differ on the
// current branch's candidates: a masked candidate edge.
//
//hbbmc:noalloc
func (g *anchorGroup) maskedIn(full, live []uint64) bool {
	for wi, c := range g.sets[g.words:] {
		if (full[wi]&^live[wi])&c != 0 {
			return true
		}
	}
	return false
}

// cutWordRows is walkWordRows with the rows cut from the anchor group's.
// The masked rows matter only when a candidate edge is masked, which the
// candidates' full and live rows over W tell before any is cut.
//
//hbbmc:noalloc
func (e *engine) cutWordRows(rowCount, inC int) bool {
	g := &e.grp
	g.enter(e.verts, inC)
	masked := false
	for i, v := range e.verts {
		var row word2
		if i < rowCount {
			full, live := g.rowOf(g.idx[v] - 1)
			row = g.cutWord(full)
			masked = masked || (i < inC && g.maskedIn(full, live))
			e.stats.UniverseEntries += int64(e.inc.Count(e.sideBuf[i]))
			e.stats.UniverseBits += int64(row.count())
		}
		e.wordG[i] = row
	}
	if masked || ablateMaskFree {
		for i, v := range e.verts {
			var row word2
			if i < rowCount {
				_, live := g.rowOf(g.idx[v] - 1)
				row = g.cutWord(live)
			}
			e.wordH[i] = row
		}
	}
	return masked
}

// cutRows is fillRowsFromIncidence with the rows cut from the anchor
// group's.
//
//hbbmc:noalloc
func (e *engine) cutRows(rowCount int) {
	g := &e.grp
	g.enter(e.verts, 0)
	for i := 0; i < rowCount; i++ {
		full, live := g.rowOf(g.idx[e.verts[i]] - 1)
		e.stats.UniverseBits += g.cutInto(e.adjG[i], full)
		g.cutInto(e.adjH[i], live)
		e.stats.UniverseEntries += int64(e.inc.Count(e.sideBuf[i]))
	}
}

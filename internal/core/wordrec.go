package core

import "math/bits"

// This file is the word kernel of HBBMC's edge branches. A branch's
// universe is its edge's common neighbours, which the truss ordering keeps
// small: universes of at most 128 members have adjacency rows of two
// machine words, and the Tomita pivot recursion runs on C/X words passed
// by value instead of arena-carved bitsets (the bit-parallel MCE of San
// Segundo et al., PAPERS.md). wordPivotRec runs universes of at most 64
// members on one word per set, wordPivotRec2 those of 65–128 on two. Each
// width is written by hand: a pivot scan generic over [1]uint64 and
// [2]uint64 ran 3.7× slower than the hand-written one. Both make the
// generic path's choices at every node, in masked branches too, so they
// report the same cliques in the same order with the same Stats.

// maxWordUniverse is the largest universe the word kernels run.
const maxWordUniverse = 128

// word2 is a set over the local ids [0, 128) of a universe: id i is bit i
// of lo below 64 and bit i-64 of hi from 64 on. The rows of both widths
// are word2s, and the one-word kernel reads only their lo words.
type word2 struct{ lo, hi uint64 }

// lowBits is the word of local ids [0, n), n ≤ 64.
func lowBits(n int) uint64 { return uint64(1)<<n - 1 }

// lowBits2 is the set of local ids [0, n), n ≤ 128.
func lowBits2(n int) word2 {
	if n <= 64 {
		return word2{lo: lowBits(n)}
	}
	return word2{^uint64(0), lowBits(n - 64)}
}

func (a word2) and(b word2) word2    { return word2{a.lo & b.lo, a.hi & b.hi} }
func (a word2) andNot(b word2) word2 { return word2{a.lo &^ b.lo, a.hi &^ b.hi} }
func (a word2) or(b word2) word2     { return word2{a.lo | b.lo, a.hi | b.hi} }
func (a word2) empty() bool          { return a.lo|a.hi == 0 }
func (a word2) count() int           { return bits.OnesCount64(a.lo) + bits.OnesCount64(a.hi) }

// bit2 holds the one-member sets {i} of the local ids [0, 128), so adding
// or removing an id costs a table load and two word operations rather than
// a branch or two range-checked shifts.
var bit2 = func() (t [maxWordUniverse]word2) {
	for i := range 64 {
		t[i].lo, t[64+i].hi = 1<<i, 1<<i
	}
	return t
}()

func (a word2) with(i int) word2    { return a.or(bit2[i&(maxWordUniverse-1)]) }
func (a word2) without(i int) word2 { return a.andNot(bit2[i&(maxWordUniverse-1)]) }

// first and last return the smallest and the largest id of a non-empty set.
func (a word2) first() int {
	if a.lo != 0 {
		return bits.TrailingZeros64(a.lo)
	}
	return 64 + bits.TrailingZeros64(a.hi)
}

func (a word2) last() int {
	if a.hi != 0 {
		return 127 - bits.LeadingZeros64(a.hi)
	}
	return 63 - bits.LeadingZeros64(a.lo)
}

// installWordUniverse is setUniverse for an edge branch of at most 128
// members, with the rows built as word2s in e.wordG/e.wordH: walked from
// the side edges' incidence lists, or cut from the anchor group's rows
// when cut is set. The word kernels read no arena and no bitset row, so it
// maps the local ids and nothing more. It reports whether a candidate edge
// is masked.
//
//hbbmc:noalloc
func (e *engine) installWordUniverse(vs []int32, baseRank int32, rowCount, inC int, cut bool) bool {
	e.mapUniverse(vs)
	e.wordRows = lowBits2(rowCount)
	if cut {
		return e.cutWordRows(rowCount, inC)
	}
	return e.walkWordRows(baseRank, rowCount, inC)
}

// walkWordRows fills the word rows of the installed universe from the
// incidence lists of the members' side edges in e.sideBuf, and reports
// whether a candidate edge is masked.
//
//hbbmc:noalloc
func (e *engine) walkWordRows(baseRank int32, rowCount, inC int) bool {
	cand := lowBits2(inC)
	masked := false
	for i := range e.verts {
		var g, h word2
		if i < rowCount {
			lo, hi, wIsDst := e.sideRange(i)
			for t := lo; t < hi; t++ {
				third := e.inc.Third(t)
				if !e.univ.Has(int(third)) {
					continue
				}
				j := int(e.localOf(third))
				g = g.with(j)
				wx := e.inc.CoSrc(t)
				if wIsDst {
					wx = e.inc.CoDst(t)
				}
				if e.eo.Rank[wx] > baseRank {
					h = h.with(j)
				}
			}
			e.stats.UniverseEntries += int64(hi - lo)
			e.stats.UniverseBits += int64(g.count())
		}
		// Members without rows keep zero rows, which the pivot scan never
		// prefers over a candidate.
		e.wordG[i], e.wordH[i] = g, h
		if i < inC && !g.andNot(h).and(cand).empty() {
			masked = true
		}
	}
	return masked
}

// maskedWords reports whether a candidate of C has a masked edge to
// another: maskedEdgesIn on word rows.
//
//hbbmc:noalloc
func (e *engine) maskedWords(C word2) bool {
	for wi, w := range [2]uint64{C.lo, C.hi} {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			if !e.wordG[i].andNot(e.wordH[i]).and(C).empty() {
				return true
			}
		}
	}
	return false
}

// wordPivotRec is pivotRec on a universe of at most 64 members: C and X
// are words, the full rows e.wordG's lo words and, while masked, the masked
// rows e.wordH's. The pivot is the first maximum in bit order over C, then
// X; masked-ness drops, early termination and the X-domination prune apply
// under the same conditions; and children branch in the same order, with
// deriveChild's sets.
//
//hbbmc:noalloc
func (e *engine) wordPivotRec(C, X uint64, masked bool) {
	if e.rc.stopped() {
		return
	}
	e.stats.Calls++
	e.stats.VertexCalls++
	if C == 0 {
		if X == 0 {
			e.emit(nil)
		}
		return
	}
	G := &e.wordG
	cSize, minDeg := bits.OnesCount64(C), 64
	best, pivot := -1, 0
	for w := C; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		c := bits.OnesCount64(G[i].lo & C)
		if c > best {
			best, pivot = c, i
		}
		minDeg = min(minDeg, c)
	}
	for w := X; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		if c := bits.OnesCount64(G[i].lo & C); c > best {
			best, pivot = c, i
		}
	}
	// One row word per candidate, plus one per exclusion member whose row
	// was built: the words the generic scanPivot reads on this universe.
	e.stats.PivotWords += int64(cSize + bits.OnesCount64(X&e.wordRows.lo))
	// Masked-ness is hereditary, as in pivotRec.
	masked = masked && e.maskedWords(word2{lo: C})
	if e.plexBranch(cSize, minDeg) && X == 0 && !masked && e.emitPlexWord(word2{lo: C}) {
		return
	}
	if !ablateXDomination && X != 0 {
		fold := X
		for w := C; w != 0 && fold != 0; w &= w - 1 {
			fold &= G[bits.TrailingZeros64(w)].lo
		}
		if fold != 0 {
			return
		}
	}
	for P := C &^ G[pivot].lo; P != 0; P &= P - 1 {
		v := bits.TrailingZeros64(P)
		// Unmasked, h = g and the masked-candidates term is empty.
		g, h := G[v].lo, G[v].lo
		if masked {
			h = e.wordH[v].lo
		}
		e.S = append(e.S, e.orig[v])
		e.wordPivotRec(C&h, X&g|C&g&^h, masked)
		e.S = e.S[:len(e.S)-1]
		C &^= 1 << v
		X |= 1 << v
	}
}

// wordPivotRec2 is wordPivotRec on a universe of 65–128 members, with C
// and X two words each. It counts two pivot words per scanned row, as the
// generic path does on a two-word universe.
//
//hbbmc:noalloc
func (e *engine) wordPivotRec2(C, X word2, masked bool) {
	if e.rc.stopped() {
		return
	}
	e.stats.Calls++
	e.stats.VertexCalls++
	if C.empty() {
		if X.empty() {
			e.emit(nil)
		}
		return
	}
	G := &e.wordG
	cSize, minDeg := C.count(), maxWordUniverse
	best, pivot := -1, 0
	for wi, w := range [2]uint64{C.lo, C.hi} {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			c := G[i].and(C).count()
			if c > best {
				best, pivot = c, i
			}
			minDeg = min(minDeg, c)
		}
	}
	for wi, w := range [2]uint64{X.lo, X.hi} {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			if c := G[i].and(C).count(); c > best {
				best, pivot = c, i
			}
		}
	}
	e.stats.PivotWords += int64(2 * (cSize + X.and(e.wordRows).count()))
	masked = masked && e.maskedWords(C)
	if e.plexBranch(cSize, minDeg) && X.empty() && !masked && e.emitPlexWord(C) {
		return
	}
	if !ablateXDomination && !X.empty() {
		fold := X
		for wi, w := range [2]uint64{C.lo, C.hi} {
			for ; w != 0 && !fold.empty(); w &= w - 1 {
				fold = fold.and(G[wi<<6|bits.TrailingZeros64(w)])
			}
		}
		if !fold.empty() {
			return
		}
	}
	P := C.andNot(G[pivot])
	for wi, w := range [2]uint64{P.lo, P.hi} {
		for ; w != 0; w &= w - 1 {
			v := wi<<6 | bits.TrailingZeros64(w)
			g, h := G[v], G[v]
			if masked {
				h = e.wordH[v]
			}
			e.S = append(e.S, e.orig[v])
			e.wordPivotRec2(C.and(h), X.and(g).or(C.and(g).andNot(h)), masked)
			e.S = e.S[:len(e.S)-1]
			C, X = C.without(v), X.with(v)
		}
	}
}

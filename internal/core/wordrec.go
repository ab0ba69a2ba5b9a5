package core

import "math/bits"

// This file is the one-word kernel of HBBMC's edge branches. A branch's
// universe is its edge's common neighbours, which the truss ordering keeps
// small, and most universes have at most 64 members: their adjacency rows
// then fit one machine word each and the Tomita pivot recursion runs on
// C/X words passed by value instead of arena-carved bitsets (the
// bit-parallel MCE of San Segundo et al., PAPERS.md). The kernel makes the
// generic path's choices at every node, so it reports the same cliques in
// the same order with the same Stats.

// lowBits is the word of local ids [0, n), n ≤ 64.
func lowBits(n int) uint64 { return uint64(1)<<n - 1 }

// installWordUniverse is installUniverse plus fillRowsFromIncidence for an
// edge branch of at most 64 members, with the rows built as words in
// e.wordG/e.wordH. It reports whether the branch runs on the kernel: no
// candidate edge is masked. Otherwise the word rows are copied into arena
// rows for the generic masked recursion.
//
//hbbmc:noalloc
func (e *engine) installWordUniverse(vs []int32, baseRank int32, rowCount, inC int) bool {
	e.installUniverse(vs, baseRank, 0)
	e.wordRows = lowBits(rowCount)
	cand := lowBits(inC)
	maskFree := !ablateMaskFree
	for i := range vs {
		var g, h uint64
		if i < rowCount {
			lo, hi, wIsDst := e.sideRange(i)
			for t := lo; t < hi; t++ {
				third := e.inc.Third(t)
				if !e.univ.Has(int(third)) {
					continue
				}
				bit := uint64(1) << e.localOf(third)
				g |= bit
				wx := e.inc.CoSrc(t)
				if wIsDst {
					wx = e.inc.CoDst(t)
				}
				if e.eo.Rank[wx] > baseRank {
					h |= bit
				}
			}
			e.stats.UniverseEntries += int64(hi - lo)
			e.stats.UniverseBits += int64(bits.OnesCount64(g))
		}
		// Members without rows keep zero rows, which the pivot scan never
		// prefers over a candidate.
		e.wordG[i], e.wordH[i] = g, h
		if i < inC && (g^h)&cand != 0 {
			maskFree = false
		}
	}
	if maskFree {
		return true
	}
	e.carveRows(rowCount)
	for i := 0; i < rowCount; i++ {
		e.adjG[i][0], e.adjH[i][0] = e.wordG[i], e.wordH[i]
	}
	return false
}

// wordPivotRec is pivotRec on an unmasked universe of at most 64 members:
// C and X are words and the rows are e.wordG. The pivot is the first
// maximum in bit order, early termination and the X-domination prune apply
// under the same conditions, and children branch in the same order.
//
//hbbmc:noalloc
func (e *engine) wordPivotRec(C, X uint64) {
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
	rows := &e.wordG
	cSize, minDeg := bits.OnesCount64(C), 64
	best, pivot := -1, 0
	for w := C; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		c := bits.OnesCount64(rows[i] & C)
		if c > best {
			best, pivot = c, i
		}
		minDeg = min(minDeg, c)
	}
	for w := X; w != 0; w &= w - 1 {
		i := bits.TrailingZeros64(w)
		if c := bits.OnesCount64(rows[i] & C); c > best {
			best, pivot = c, i
		}
	}
	// One row word per candidate, plus one per exclusion member whose row
	// was built: the words the generic scanPivot reads on this universe.
	e.stats.PivotWords += int64(cSize + bits.OnesCount64(X&e.wordRows))
	if e.plexBranch(cSize, minDeg) && X == 0 && e.emitPlexWord(C) {
		return
	}
	if !ablateXDomination && X != 0 {
		fold := X
		for w := C; w != 0 && fold != 0; w &= w - 1 {
			fold &= rows[bits.TrailingZeros64(w)]
		}
		if fold != 0 {
			return
		}
	}
	for P := C &^ rows[pivot]; P != 0; P &= P - 1 {
		v := bits.TrailingZeros64(P)
		e.S = append(e.S, e.verts[v])
		e.wordPivotRec(C&rows[v], X&rows[v])
		e.S = e.S[:len(e.S)-1]
		C &^= 1 << v
		X |= 1 << v
	}
}

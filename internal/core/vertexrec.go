package core

import (
	"math"
	"math/bits"

	"github.com/graphmining/hbbmc/internal/bitset"
)

// This file contains the vertex-oriented recursions. All share the same
// contract: (S implicit in e.S, C, X) is a branch; C and X are bitsets over
// the current local universe owned by the callee (they may be mutated);
// adjH is the masked candidate adjacency inside hybrid branches (nil
// otherwise — then the full adjacency e.adjG applies to candidates too).
//
// Hot loops iterate bitsets word-by-word (TrailingZeros64 + w&(w-1)) rather
// than through per-bit First/NextAfter calls, and compute candidate degrees
// with the fused intersect+popcount kernels of internal/bitset.

// pivotRec is the classic Tomita pivot recursion used by BK_Pivot, BK_Degen,
// BK_Degree and as the default inner recursion of HBBMC: pick the vertex of
// C ∪ X with the most candidate neighbors and branch only on its
// non-neighbors in C.
//
//hbbmc:noalloc
func (e *engine) pivotRec(adjH []bitset.Set, C, X bitset.Set) {
	if e.rc.stopped() {
		return
	}
	e.stats.Calls++
	e.stats.VertexCalls++
	if C.IsEmpty() {
		if X.IsEmpty() {
			e.emit(nil)
		}
		return
	}
	cSize, minDeg, pivot := e.scanPivot(C, X)
	// Masked-ness is hereditary: C only shrinks, so once no candidate edge
	// is masked the entire subtree can run the cheaper unmasked recursion.
	if adjH != nil && !ablateMaskDrop && !e.maskedEdgesIn(adjH, C) {
		adjH = nil
	}
	if e.tryEarlyTerminate(adjH, C, X, cSize, minDeg) {
		return
	}
	// An exclusion vertex covering every candidate makes all descendants
	// non-maximal; pruning here costs |C| word-ANDs and skips the subtree.
	if !ablateXDomination && e.xDominated(C, X) {
		return
	}
	mark := e.setArena.Mark()
	P := e.setArena.GetUnzeroed()
	P.AndNotInto(C, e.adjG[pivot])
	childC := e.setArena.GetUnzeroed()
	childX := e.setArena.GetUnzeroed()
	tmp := e.setArena.GetUnzeroed()
	// P is never mutated inside the loop (only C and X are), so the word
	// snapshot iteration is safe.
	for wi, w := range P {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			v := base + bits.TrailingZeros64(w)
			e.deriveChild(adjH, C, X, v, childC, childX, tmp)
			e.S = append(e.S, e.verts[v])
			e.pivotRec(adjH, childC, childX)
			e.S = e.S[:len(e.S)-1]
			C.Unset(v)
			X.Set(v)
		}
	}
	e.setArena.Release(mark)
}

// scanPivot computes |C|, the minimum candidate degree inside C (full
// adjacency — used by the t-plex test) and the Tomita pivot over C ∪ X.
// Exclusion vertices without adjacency rows (the edge-oriented top level
// skips building them) are not considered as pivots; candidates always
// provide a valid pivot.
//
//hbbmc:noalloc
func (e *engine) scanPivot(C, X bitset.Set) (cSize, minDeg, pivot int) {
	cSize, minDeg, pivot = 0, math.MaxInt, -1
	best := -1
	e.ensureCnt()
	adj := e.adjG
	cnt := e.cntBuf
	for wi, w := range C {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			c := adj[i].AndCount(C)
			cnt[i] = int32(c)
			cSize++
			if c > best {
				best, pivot = c, i
			}
			if c < minDeg {
				minDeg = c
			}
		}
	}
	rows := cSize
	for wi, w := range X {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			if adj[i] == nil {
				continue
			}
			rows++
			if c := adj[i].AndCount(C); c > best {
				best, pivot = c, i
			}
		}
	}
	e.stats.PivotWords += int64(rows * len(C))
	return cSize, minDeg, pivot
}

// maskedEdgesIn reports whether any candidate-candidate edge is masked:
// some candidate's masked row differs from its full row on C.
//
//hbbmc:noalloc
func (e *engine) maskedEdgesIn(adjH []bitset.Set, C bitset.Set) bool {
	for wi, cw := range C {
		base := wi * 64
		for ; cw != 0; cw &= cw - 1 {
			i := base + bits.TrailingZeros64(cw)
			rowG, rowH := e.adjG[i], adjH[i]
			for w := range C {
				if (rowG[w]^rowH[w])&C[w] != 0 {
					return true
				}
			}
		}
	}
	return false
}

// ensureCnt sizes the per-local-id candidate-count cache. Every scan that
// may lead into tryEarlyTerminate stores its counts here so the plex
// decomposition can reuse them instead of recounting.
func (e *engine) ensureCnt() {
	if cap(e.cntBuf) < len(e.verts) {
		e.cntBuf = make([]int32, len(e.verts))
	}
	e.cntBuf = e.cntBuf[:len(e.verts)]
}

// xDominated reports whether some exclusion vertex is adjacent to every
// candidate — in which case no maximal clique exists below the branch. It
// folds candidate rows over X, so it needs no X-side adjacency rows. The
// scratch set is carved from the caller's arena mark.
//
//hbbmc:noalloc
func (e *engine) xDominated(C, X bitset.Set) bool {
	if X.IsEmpty() {
		return false
	}
	mark := e.setArena.Mark()
	fold := e.setArena.GetUnzeroed()
	fold.CopyFrom(X)
	for wi, w := range C {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			c := base + bits.TrailingZeros64(w)
			// Fold and test emptiness in one pass (aliasing fold as both
			// destination and operand is safe: same-index read then write).
			if fold.AndIntoCount(fold, e.adjG[c]) == 0 {
				e.setArena.Release(mark)
				return false
			}
		}
	}
	e.setArena.Release(mark)
	return true
}

// refRec is the Naudé-style refined recursion (BK_Ref, [12]): the Tomita
// pivot augmented with two domination rules — a branch dies when some
// exclusion vertex covers all of C, and a candidate adjacent to every other
// candidate is moved into S without branching.
//
//hbbmc:noalloc
func (e *engine) refRec(adjH []bitset.Set, C, X bitset.Set) {
	if e.rc.stopped() {
		return
	}
	e.stats.Calls++
	e.stats.VertexCalls++
	if C.IsEmpty() {
		if X.IsEmpty() {
			e.emit(nil)
		}
		return
	}
	// Rule 1: an exclusion vertex adjacent to all candidates dominates the
	// branch — no clique below can be maximal.
	if e.xDominated(C, X) {
		return
	}
	cSize := C.Count()
	minDeg, universal := math.MaxInt, -1
	best, pivot := -1, -1
	e.ensureCnt()
	adj := e.adjG
	cnt := e.cntBuf
	for wi, w := range C {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			c := adj[i].AndCount(C)
			cnt[i] = int32(c)
			if c > best {
				best, pivot = c, i
			}
			if c < minDeg {
				minDeg = c
			}
			if c == cSize-1 && universal < 0 {
				universal = i
			}
		}
	}
	e.stats.PivotWords += int64(cSize * len(C))
	if adjH != nil && !ablateMaskDrop && !e.maskedEdgesIn(adjH, C) {
		adjH = nil
	}
	if e.tryEarlyTerminate(adjH, C, X, cSize, minDeg) {
		return
	}
	// Rule 2 (unmasked branches only): a candidate adjacent to every other
	// candidate belongs to every maximal clique of the branch. In masked
	// branches full adjacency does not imply candidate adjacency, so the
	// move would be unsound.
	if adjH == nil && universal >= 0 {
		mark := e.setArena.Mark()
		childC := e.setArena.GetUnzeroed()
		childX := e.setArena.GetUnzeroed()
		childC.CopyFrom(C)
		childC.Unset(universal)
		childX.AndInto(X, e.adjG[universal])
		e.S = append(e.S, e.verts[universal])
		e.refRec(adjH, childC, childX)
		e.S = e.S[:len(e.S)-1]
		e.setArena.Release(mark)
		return
	}
	mark := e.setArena.Mark()
	P := e.setArena.GetUnzeroed()
	P.AndNotInto(C, e.adjG[pivot])
	childC := e.setArena.GetUnzeroed()
	childX := e.setArena.GetUnzeroed()
	tmp := e.setArena.GetUnzeroed()
	for wi, w := range P {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			v := base + bits.TrailingZeros64(w)
			e.deriveChild(adjH, C, X, v, childC, childX, tmp)
			e.S = append(e.S, e.verts[v])
			e.refRec(adjH, childC, childX)
			e.S = e.S[:len(e.S)-1]
			C.Unset(v)
			X.Set(v)
		}
	}
	e.setArena.Release(mark)
}

// rcdRec is BK_Rcd (Algorithm 9 of the paper, from [11]): repeatedly branch
// at the candidate of minimum candidate-graph degree until the candidate
// graph becomes a clique, then report S ∪ C if no exclusion vertex covers C.
//
// Candidate degrees are scanned once per call and then maintained
// incrementally: branching vertex v away only decrements the counts of v's
// neighbors inside C, so each removal step costs one row intersection plus
// an O(|C|) integer min-scan instead of |C| full row intersections. The
// counts live in the per-level cntArena, so the recursive call's own scan
// cannot clobber the parent's.
//
//hbbmc:noalloc
func (e *engine) rcdRec(adjH []bitset.Set, C, X bitset.Set) {
	if e.rc.stopped() {
		return
	}
	e.stats.Calls++
	e.stats.VertexCalls++
	if C.IsEmpty() {
		if X.IsEmpty() {
			e.emit(nil)
		}
		return
	}
	k := len(e.verts)
	mark := e.setArena.Mark()
	imark := e.cntArena.mark()
	childC := e.setArena.GetUnzeroed()
	childX := e.setArena.GetUnzeroed()
	tmp := e.setArena.GetUnzeroed()

	// One full scan: candidate-graph degrees (masked adjacency in hybrid
	// branches) drive the clique test and the branching choice; full
	// degrees drive the t-plex test. Min tracking rides along, so the first
	// loop iteration needs no extra pass.
	cntG := e.cntArena.get(k)
	cntH := cntG
	if adjH != nil {
		cntH = e.cntArena.get(k)
	}
	cSize := 0
	minH, minV := math.MaxInt, -1
	minG := math.MaxInt
	for wi, w := range C {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			cSize++
			g := int(e.adjG[i].AndCount(C))
			cntG[i] = int32(g)
			h := g
			if adjH != nil {
				h = int(adjH[i].AndCount(C))
				cntH[i] = int32(h)
			}
			if h < minH {
				minH, minV = h, i
			}
			if g < minG {
				minG = g
			}
		}
	}
	if adjH != nil {
		e.stats.PivotWords += int64(2 * cSize * len(C))
	} else {
		e.stats.PivotWords += int64(cSize * len(C))
	}
	for {
		// tryEarlyTerminate reads the candidate counts from cntBuf; alias
		// the maintained counts in (read-only below emitPlexDirect) when
		// the t-plex precondition can actually hold — the same condition
		// tryEarlyTerminate checks first.
		if t := e.opts.ET; t != 0 && minG >= cSize-t {
			saved := e.cntBuf
			e.cntBuf = cntG //hbbmc:allowescape aliased only for the tryEarlyTerminate call, restored on the next line
			closed := e.tryEarlyTerminate(adjH, C, X, cSize, minG)
			e.cntBuf = saved
			if closed {
				e.setArena.Release(mark)
				e.cntArena.release(imark)
				return
			}
		}
		if minH == cSize-1 {
			break // candidate graph is a clique
		}
		e.deriveChild(adjH, C, X, minV, childC, childX, tmp)
		e.S = append(e.S, e.verts[minV])
		e.rcdRec(adjH, childC, childX)
		e.S = e.S[:len(e.S)-1]
		C.Unset(minV)
		X.Set(minV)
		cSize--
		if cSize == 0 {
			// All candidates were branched away; the vertices now in X
			// block maximality of S itself.
			e.setArena.Release(mark)
			e.cntArena.release(imark)
			return
		}
		// Removing minV from C decrements the candidate degree of exactly
		// its neighbors inside C — one row intersection instead of |C|
		// full-row rescans.
		tmp.AndInto(C, e.adjG[minV])
		for wi, w := range tmp {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				cntG[base+bits.TrailingZeros64(w)]--
			}
		}
		if adjH != nil {
			tmp.AndInto(C, adjH[minV])
			for wi, w := range tmp {
				base := wi * 64
				for ; w != 0; w &= w - 1 {
					cntH[base+bits.TrailingZeros64(w)]--
				}
			}
		}
		// Min-rescan over the maintained counts: O(|C|) integer reads.
		minH, minV, minG = math.MaxInt, -1, math.MaxInt
		for wi, w := range C {
			base := wi * 64
			for ; w != 0; w &= w - 1 {
				i := base + bits.TrailingZeros64(w)
				if h := int(cntH[i]); h < minH {
					minH, minV = h, i
				}
				if g := int(cntG[i]); g < minG {
					minG = g
				}
			}
		}
	}
	// C is a candidate-graph clique; S ∪ C is maximal unless some exclusion
	// vertex is adjacent to all of C.
	if !e.xDominated(C, X) {
		e.emitSet(C)
	}
	e.setArena.Release(mark)
	e.cntArena.release(imark)
}

// facRec is BK_Fac (Algorithm 10 of the paper, from [18]): start from an
// arbitrary pivot and opportunistically adopt a better one whenever a
// just-branched vertex would have produced fewer sub-branches.
//
//hbbmc:noalloc
func (e *engine) facRec(adjH []bitset.Set, C, X bitset.Set) {
	if e.rc.stopped() {
		return
	}
	e.stats.Calls++
	e.stats.VertexCalls++
	if C.IsEmpty() {
		if X.IsEmpty() {
			e.emit(nil)
		}
		return
	}
	if e.opts.ET > 0 {
		cSize, minDeg := e.scanDegrees(C)
		if e.tryEarlyTerminate(adjH, C, X, cSize, minDeg) {
			return
		}
	}
	mark := e.setArena.Mark()
	P := e.setArena.GetUnzeroed()
	v := C.First()
	pCount := P.AndNotIntoCount(C, e.adjG[v])
	childC := e.setArena.GetUnzeroed()
	childX := e.setArena.GetUnzeroed()
	tmp := e.setArena.GetUnzeroed()
	for {
		u := P.First()
		if u < 0 {
			break
		}
		e.deriveChild(adjH, C, X, u, childC, childX, tmp)
		e.S = append(e.S, e.verts[u])
		e.facRec(adjH, childC, childX)
		e.S = e.S[:len(e.S)-1]
		C.Unset(u)
		X.Set(u)
		P.Unset(u)
		pCount--
		// Adopt u as the new pivot when that shrinks the branch set
		// (|C \ N(u)| in one fused pass).
		if alt := C.AndNotCount(e.adjG[u]); alt < pCount {
			pCount = P.AndNotIntoCount(C, e.adjG[u])
		}
	}
	e.setArena.Release(mark)
}

// scanDegrees fills cntBuf with the candidate degrees inside C and returns
// |C| and the minimum degree — the inputs of the t-plex test for recursions
// that do not need a pivot.
//
//hbbmc:noalloc
func (e *engine) scanDegrees(C bitset.Set) (cSize, minDeg int) {
	cSize, minDeg = 0, math.MaxInt
	e.ensureCnt()
	adj := e.adjG
	cnt := e.cntBuf
	for wi, w := range C {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			i := base + bits.TrailingZeros64(w)
			c := adj[i].AndCount(C)
			cnt[i] = int32(c)
			cSize++
			if c < minDeg {
				minDeg = c
			}
		}
	}
	e.stats.PivotWords += int64(cSize * len(C))
	return cSize, minDeg
}

// plainRec is the original Bron–Kerbosch recursion without pivoting,
// branching on every candidate.
//
//hbbmc:noalloc
func (e *engine) plainRec(adjH []bitset.Set, C, X bitset.Set) {
	if e.rc.stopped() {
		return
	}
	e.stats.Calls++
	e.stats.VertexCalls++
	if C.IsEmpty() {
		if X.IsEmpty() {
			e.emit(nil)
		}
		return
	}
	if e.opts.ET > 0 {
		cSize, minDeg := e.scanDegrees(C)
		if e.tryEarlyTerminate(adjH, C, X, cSize, minDeg) {
			return
		}
	}
	mark := e.setArena.Mark()
	childC := e.setArena.GetUnzeroed()
	childX := e.setArena.GetUnzeroed()
	tmp := e.setArena.GetUnzeroed()
	snapshot := e.setArena.GetUnzeroed()
	snapshot.CopyFrom(C)
	for wi, w := range snapshot {
		base := wi * 64
		for ; w != 0; w &= w - 1 {
			v := base + bits.TrailingZeros64(w)
			e.deriveChild(adjH, C, X, v, childC, childX, tmp)
			e.S = append(e.S, e.verts[v])
			e.plainRec(adjH, childC, childX)
			e.S = e.S[:len(e.S)-1]
			C.Unset(v)
			X.Set(v)
		}
	}
	e.setArena.Release(mark)
}

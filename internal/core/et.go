package core

import (
	"math/bits"

	"github.com/graphmining/hbbmc/internal/bitset"
)

// This file implements the early-termination construction (Section IV of
// the paper) on the engine's bitset universes: when a branch's candidate
// graph is a t-plex (t ≤ 3) with an empty exclusion graph — and, inside
// hybrid branches, no masked candidate edge — all its maximal cliques are
// built directly from the complement structure instead of branching.
//
// The complement of the candidate graph is decomposed with word arithmetic
// (a vertex's complement neighbors are C &^ N(v)), and the streaming
// emitter in internal/plex walks the F × paths × cycles product without
// allocating.

// emitPlexDirect decomposes the complement of G[C] (C must be a t-plex,
// t ≤ 3) and emits S ∪ each maximal clique. cSize is |C|. It returns false
// without emitting anything when some vertex has more than two complement
// neighbors — impossible when the caller's t-plex check passed, but cheap
// to guard.
//
//hbbmc:noalloc
func (e *engine) emitPlexDirect(C bitset.Set, cSize int) bool {
	e.beginComplement()
	mark := e.setArena.Mark()
	tmp := e.setArena.Get()

	// Every caller has just filled cntBuf for this C (see ensureCnt sites).
	for wi, cw := range C {
		base := wi * 64
		for ; cw != 0; cw &= cw - 1 {
			v := base + bits.TrailingZeros64(cw)
			if int(e.cntBuf[v]) == cSize-1 {
				e.fBuf = append(e.fBuf, int32(v))
				continue
			}
			// At most two complement neighbors (t ≤ 3 guarantees it).
			tmp.AndNotInto(C, e.adjG[v])
			tmp.Unset(v)
			if tmp.CountCapped(3) > 2 {
				e.setArena.Release(mark)
				return false
			}
			first := tmp.First()
			e.addComplement(v, first, tmp.NextAfter(first))
		}
	}
	e.setArena.Release(mark)
	e.emitComplement()
	return true
}

// emitPlexWord is emitPlexDirect for the word kernels (wordrec.go), one or
// two words wide: a candidate's complement neighbors are C &^ row &^
// itself, taken in bit order as emitPlexDirect takes them.
//
//hbbmc:noalloc
func (e *engine) emitPlexWord(C word2) bool {
	e.beginComplement()
	for wi, cw := range [2]uint64{C.lo, C.hi} {
		for ; cw != 0; cw &= cw - 1 {
			v := wi<<6 | bits.TrailingZeros64(cw)
			comp := C.andNot(e.wordG[v]).without(v)
			switch comp.count() {
			case 0:
				e.fBuf = append(e.fBuf, int32(v))
			case 1:
				e.addComplement(v, comp.first(), -1)
			case 2:
				e.addComplement(v, comp.first(), comp.last())
			default:
				return false
			}
		}
	}
	e.emitComplement()
	return true
}

// beginComplement empties the decomposition buffers and sizes the
// per-vertex complement tables to the universe.
//
//hbbmc:noalloc
func (e *engine) beginComplement() {
	k := len(e.verts)
	if cap(e.compA) < k { //hbbmc:allowalloc amortised growth to the largest universe seen
		e.compA = make([]int32, k)
		e.compB = make([]int32, k)
		e.compVisited = make([]bool, k)
	}
	e.compA = e.compA[:k]
	e.compB = e.compB[:k]
	e.compVisited = e.compVisited[:k]
	e.fBuf = e.fBuf[:0]
	e.nonF = e.nonF[:0]
}

// addComplement records candidate v's one or two complement neighbors
// (second is -1 when there is one).
//
//hbbmc:noalloc
func (e *engine) addComplement(v, first, second int) {
	e.compA[v] = int32(first)
	e.compB[v] = int32(second)
	e.compVisited[v] = false
	e.nonF = append(e.nonF, int32(v))
}

// emitComplement walks the complement decomposition recorded by
// addComplement into paths and cycles, emits S ∪ each maximal clique of
// the t-plex and counts the closed branch.
//
//hbbmc:noalloc
func (e *engine) emitComplement() {
	before := e.stats.Cliques + e.stats.SuppressedLeaves
	s := &e.plexScratch
	s.Begin(e.fBuf)

	// Paths first: walk from complement-degree-1 endpoints.
	for _, v := range e.nonF {
		if e.compVisited[v] || e.compB[v] >= 0 {
			continue
		}
		e.walkBuf = e.walkBuf[:0]
		prev, cur := int32(-1), v
		for {
			e.compVisited[cur] = true
			e.walkBuf = append(e.walkBuf, cur)
			next := e.compA[cur]
			if next == prev {
				next = e.compB[cur]
			}
			if next < 0 {
				break
			}
			prev, cur = cur, next
		}
		s.AddPath(e.walkBuf)
	}
	// Remaining unvisited non-F vertices lie on cycles.
	for _, v := range e.nonF {
		if e.compVisited[v] {
			continue
		}
		e.walkBuf = e.walkBuf[:0]
		prev, cur := int32(-1), v
		for {
			e.compVisited[cur] = true
			e.walkBuf = append(e.walkBuf, cur)
			next := e.compA[cur]
			if next == prev {
				next = e.compB[cur]
			}
			prev, cur = cur, next
			if cur == v {
				break
			}
		}
		s.AddCycle(e.walkBuf)
	}
	s.Emit(e.etEmit)
	e.stats.EarlyTerminations++
	e.stats.ETCliques += (e.stats.Cliques + e.stats.SuppressedLeaves) - before
}

package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
)

// This file implements the top-k-largest-cliques query (Session.TopK): a
// full enumeration filtered through a size-threshold visitor. The visitor
// keeps the k best cliques seen so far in a min-heap ordered worst-first;
// once the heap is full its worst entry's size becomes the admission
// threshold, and the threshold only tightens as larger cliques arrive —
// the overwhelming majority of cliques are then rejected by a single
// length comparison. The enumeration itself is untouched, so the query
// parallelises and cancels exactly like Enumerate does.

// cliqueLess is the total order the top-k query ranks cliques by: larger
// size first, then lexicographically smaller vertex sequence (both sides
// sorted ascending). The tie-break makes the result set deterministic
// across worker counts and delivery orders.
func cliqueLess(a, b []int32) bool {
	if len(a) != len(b) {
		return len(a) > len(b)
	}
	return slices.Compare(a, b) < 0
}

// topKAccum accumulates the k best cliques under cliqueLess. It is used as
// an enumeration Visitor, which the driver guarantees never runs
// concurrently, so no lock is needed. The heap is worst-first: heap[0] is
// the entry the next better clique evicts.
type topKAccum struct {
	k        int
	heap     [][]int32
	rejected int64 // cliques cut by the size threshold alone
}

// worse is the heap predicate: a sorts below b when a is the worse clique.
func (t *topKAccum) worse(a, b []int32) bool { return cliqueLess(b, a) }

func (t *topKAccum) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(t.heap[i], t.heap[parent]) {
			break
		}
		t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
		i = parent
	}
}

func (t *topKAccum) siftDown(i int) {
	n := len(t.heap)
	for {
		worst := i
		if l := 2*i + 1; l < n && t.worse(t.heap[l], t.heap[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.worse(t.heap[r], t.heap[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// visit is the enumeration Visitor. The fast path is the tightening size
// threshold: once k cliques are held, anything strictly smaller than the
// worst kept clique is rejected on length alone, before the clique is even
// copied or sorted.
func (t *topKAccum) visit(c []int32) bool {
	if len(t.heap) == t.k && len(c) < len(t.heap[0]) {
		t.rejected++
		return true
	}
	cc := append([]int32(nil), c...)
	slices.Sort(cc)
	if len(t.heap) < t.k {
		t.heap = append(t.heap, cc)
		t.siftUp(len(t.heap) - 1)
		return true
	}
	if cliqueLess(cc, t.heap[0]) {
		t.heap[0] = cc
		t.siftDown(0)
	} else {
		t.rejected++
	}
	return true
}

// sorted drains the accumulator, best clique first.
func (t *topKAccum) sorted() [][]int32 {
	out := append([][]int32(nil), t.heap...)
	slices.SortFunc(out, func(a, b []int32) int {
		switch {
		case cliqueLess(a, b):
			return -1
		case cliqueLess(b, a):
			return 1
		}
		return 0
	})
	return out
}

// threshold returns the current admission bound: the size a clique must
// reach to enter the result set (0 until k cliques were seen).
func (t *topKAccum) threshold() int {
	if len(t.heap) < t.k {
		return 0
	}
	return len(t.heap[0])
}

// TopK returns the k largest maximal cliques of the session's graph,
// ordered by size descending (ties broken by lexicographically smaller
// sorted vertex sequence, so the result is deterministic across worker
// counts). Each returned clique is a fresh sorted slice of original vertex
// ids. Fewer than k cliques are returned when the graph has fewer maximal
// cliques.
//
// The query is a full enumeration behind a size-threshold visitor whose
// bound tightens as results arrive; it runs, parallelises and cancels
// exactly like Session.Enumerate, and the returned Stats are the
// enumeration's. A cancelled query returns the best k found so far with an
// error wrapping ctx.Err(). A session-level clique budget is ignored — a
// truncated enumeration could silently miss the true top-k.
func (s *Session) TopK(ctx context.Context, k int, q QueryOptions) ([][]int32, *Stats, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("core: TopK needs k >= 1, got %d", k)
	}
	opts, err := q.apply(s.opts)
	if err != nil {
		return nil, nil, err
	}
	if q.rng().set {
		return nil, nil, errors.New("core: branch ranges apply to enumeration queries only")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opts.MaxCliques = 0 // a clique budget would truncate below the true top-k
	acc := &topKAccum{k: k}
	stats, err := s.enumerateRange(ctx, opts, branchRange{}, progress{}, acc.visit)
	return acc.sorted(), stats, err
}

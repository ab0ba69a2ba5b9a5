package core

import (
	"sync"
	"sync/atomic"
)

// This file implements ordered release for hooked multi-worker runs:
// workers hand each finished work-queue chunk to a sequencer, which reports
// the chunks to the BranchDone hook in ascending schedule-position order
// and, when the query has a visitor, first releases the chunk's buffered
// cliques to it. The point is a resumable stream — everything the visitor
// saw before the hook reported chunk [lo, hi) belongs to residue + branches
// [0, hi), so a checkpoint written in the hook never claims an undelivered
// clique and a resume from it never re-delivers a claimed one. A count has
// no visitor, so only its reports are put in order.

// orderedChunk is one work-queue chunk of schedule positions [begin, end)
// on its way through the sequencer: the number of cliques its worker found,
// the worker's running maximum clique size, and, on a run with a visitor,
// the cliques themselves, flattened (lens + data) like an emitBatcher batch
// so buffering costs no per-clique allocation.
type orderedChunk struct {
	begin, end int
	cliques    int64
	max        int
	lens       []int32
	data       []int32
}

// orderedSeq re-sequences completed chunks into ascending schedule order.
// Workers hand finished chunks to complete(); whichever worker finds the
// next-in-order chunk present becomes the releaser and delivers pending
// chunks and fires the hook until it hits a gap — the combining-lock
// pattern, so delivery and the hook run on one goroutine at a time while
// other workers only pay a map insert.
type orderedSeq struct {
	visit Visitor // nil on a count
	rc    *runControl
	hook  func(lo, hi int, cliques int64, maxCliqueSize int)

	mu sync.Mutex
	// next is the schedule position the sequencer is waiting on: every
	// chunk below it was delivered (or the run stopped).
	//hbbmc:guardedby mu
	next int
	// pending holds completed, not-yet-released chunks keyed by begin.
	//hbbmc:guardedby mu
	pending map[int]*orderedChunk
	// releasing marks a worker inside the release loop; others just insert.
	//hbbmc:guardedby mu
	releasing bool
	// refused latches when the visitor returned false: no further visitor
	// calls are allowed (the streaming contract), so later chunks drop.
	//hbbmc:guardedby mu
	refused bool
	// dropped counts buffered cliques that were never delivered — their
	// finding workers already counted them, so the driver subtracts this to
	// keep Stats.Cliques = cliques actually reported. A count buffers none,
	// so its dropped count stays zero.
	//hbbmc:guardedby mu
	dropped int64

	// released counts chunks delivered to a visitor, for Stats.EmitBatches.
	released atomic.Int64
}

func newOrderedSeq(visit Visitor, rc *runControl, hook func(lo, hi int, cliques int64, maxCliqueSize int), lo int) *orderedSeq {
	return &orderedSeq{visit: visit, rc: rc, hook: hook, next: lo, pending: make(map[int]*orderedChunk)}
}

// complete hands a finished chunk to the sequencer. A chunk completed after
// the stop latch is dropped whole — the latch may mean the chunk was cut
// short mid-run, so neither its cliques nor its interval may be claimed; a
// resume re-runs it.
func (s *orderedSeq) complete(c *orderedChunk) {
	s.mu.Lock()
	if s.rc.stopped() || s.refused {
		s.dropped += int64(len(c.lens))
		s.mu.Unlock()
		return
	}
	s.pending[c.begin] = c
	if s.releasing {
		s.mu.Unlock()
		return
	}
	s.releasing = true
	for !s.refused {
		nc, ok := s.pending[s.next]
		if !ok {
			break
		}
		delete(s.pending, s.next)
		s.mu.Unlock()
		delivered, full := s.deliver(nc)
		if full {
			// The chunk's cliques reached the visitor, or there is none: the
			// prefix up to nc.end is now claimable. Firing here, on the
			// single releasing goroutine, is what lets the hook both persist
			// a checkpoint and inject a marker into the same stream with
			// nothing out of order on either side of it.
			s.hook(nc.begin, nc.end, delivered, nc.max)
		}
		s.mu.Lock()
		if !full {
			s.refused = true
			s.dropped += int64(len(nc.lens)) - delivered
		}
		s.next = nc.end
	}
	s.releasing = false
	s.mu.Unlock()
}

// deliver walks one chunk's buffered cliques into the visitor. The slices
// alias the chunk buffer, matching the streaming reuse contract. A visitor
// refusal latches the run's stop flag and aborts the chunk. Without a
// visitor the chunk's found cliques count as delivered.
func (s *orderedSeq) deliver(c *orderedChunk) (delivered int64, full bool) {
	if s.visit == nil {
		return c.cliques, true
	}
	s.released.Add(1)
	off := 0
	for _, l := range c.lens {
		cl := c.data[off : off+int(l) : off+int(l)]
		off += int(l)
		if !s.visit(cl) {
			s.rc.stop.Store(true)
			return delivered, false
		}
		delivered++
	}
	return delivered, true
}

// abandon drops every still-pending chunk and returns the number of
// buffered cliques never delivered; the driver calls it after the workers
// join, when the lock is uncontended.
func (s *orderedSeq) abandon() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.pending {
		s.dropped += int64(len(c.lens))
	}
	clear(s.pending)
	return s.dropped
}

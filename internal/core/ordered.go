package core

import (
	"sync"
	"sync/atomic"
)

// This file implements ordered emission for multi-worker runs: workers
// buffer each work-queue chunk's cliques locally and a sequencer releases
// the buffers to the user visitor in ascending schedule-position order.
// The point is a resumable stream — everything the visitor saw before the
// progress hook reported chunk [lo, hi) belongs to residue + branches
// [0, hi), so a checkpoint written in the hook never claims an undelivered
// clique and a resume from it never re-delivers a claimed one.

// orderedChunk buffers the cliques one worker found in one work-queue chunk
// of schedule positions [begin, end), flattened (lens + data) like an
// emitBatcher batch so buffering costs no per-clique allocation.
type orderedChunk struct {
	begin, end int
	lens       []int32
	data       []int32
	max        int
}

func (c *orderedChunk) add(cl []int32) {
	c.lens = append(c.lens, int32(len(cl)))
	c.data = append(c.data, cl...)
	if len(cl) > c.max {
		c.max = len(cl)
	}
}

// orderedWriter is one worker's emit target in ordered mode; the driver
// points cur at a fresh chunk before running it.
type orderedWriter struct{ cur *orderedChunk }

// add buffers one clique (copying it — the engine reuses the slice). It
// always reports true: a visitor stop propagates through the run's stop
// latch when the sequencer later delivers the chunk.
func (w *orderedWriter) add(c []int32) bool {
	w.cur.add(c)
	return true
}

// orderedSeq re-sequences completed chunks into ascending schedule order.
// Workers hand finished chunks to complete(); whichever worker finds the
// next-in-order chunk present becomes the releaser and delivers pending
// chunks (and fires the progress hook, when set) until it hits a gap — the
// combining-lock pattern, so delivery and the hook run on one goroutine at
// a time while other workers only pay a map insert.
type orderedSeq struct {
	visit Visitor
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
	// keep Stats.Cliques = cliques actually reported.
	//hbbmc:guardedby mu
	dropped int64

	// released counts delivered chunks for Stats.EmitBatches.
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
		s.released.Add(1)
		if full && s.hook != nil {
			// The chunk's cliques reached the visitor: the prefix up to
			// nc.end is now claimable. Firing here, on the single releasing
			// goroutine, is what lets the hook both persist a checkpoint and
			// inject a marker into the same stream with nothing out of order
			// on either side of it.
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
// refusal latches the run's stop flag and aborts the chunk.
func (s *orderedSeq) deliver(c *orderedChunk) (delivered int64, full bool) {
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

// abandon drops every still-pending chunk; the driver calls it after the
// workers join so the dropped count is final before stats are merged.
func (s *orderedSeq) abandon() {
	s.mu.Lock()
	for _, c := range s.pending {
		s.dropped += int64(len(c.lens))
	}
	clear(s.pending)
	s.mu.Unlock()
}

// droppedCount reads the undelivered-clique count; callers use it after the
// workers join, when the lock is uncontended.
func (s *orderedSeq) droppedCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

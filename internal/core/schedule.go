package core

import (
	"sync"
	"sync/atomic"
)

// guidedDivisor controls the guided self-scheduling decay: each queue pop
// claims remaining/(workers·guidedDivisor) items, so chunks start large
// (low contention while every worker is busy) and shrink geometrically to
// single items toward the tail, where the skew of the truss/degeneracy
// order concentrates the imbalance.
const guidedDivisor = 4

// RampUpChunk is the guided ramp-up chunk policy for cost-ordered branch
// queues: position pos counts branches already claimed off the expensive
// head, so chunks start at one branch (the LPT heuristic needs the costly
// head handed out singly) and grow linearly toward the cheap tail, where
// batching only saves per-claim traffic. consumers is the number of parties
// pulling from the queue — local workers for the in-process scheduler,
// peers for the distributed shard splitter (internal/distrib), which is the
// point: both consume the same descriptor stream shape. The result is
// clamped to remaining and always at least 1 (0 when remaining is 0).
func RampUpChunk(pos, remaining, consumers int) int {
	if remaining <= 0 {
		return 0
	}
	if consumers < 1 {
		consumers = 1
	}
	chunk := pos/(consumers*guidedDivisor) + 1
	if chunk > remaining {
		chunk = remaining
	}
	return chunk
}

// workQueue distributes the top-level branch indices [lo, n) to workers via
// a single atomic cursor. Workers pull half-open ranges with next(); the
// chunk size is either fixed (fixed > 0) or guided (see guidedDivisor).
type workQueue struct {
	cursor  atomic.Int64 // branches claimed so far, relative to lo
	lo      int64
	n       int64 // absolute exclusive end, n >= lo
	workers int64
	fixed   int64
	// rampUp inverts the guided decay for cost-ordered queues: the head of
	// the queue holds the most expensive branches, which must be handed out
	// singly (the LPT heuristic) while chunks grow toward the cheap tail,
	// where batching only saves queue traffic. See RampUpChunk.
	rampUp bool
}

// newWorkQueue builds a queue over the branch interval [lo, hi) — the full
// branch space, or the shape a distributed shard executes. The ramp-up
// position is relative to lo: within a shard the schedule's cost order
// still decays, so the shard-local head is handed out in small chunks.
func newWorkQueue(lo, hi, workers, fixed int) *workQueue {
	if workers < 1 {
		workers = 1
	}
	return &workQueue{lo: int64(lo), n: int64(hi), workers: int64(workers), fixed: int64(fixed)}
}

// next claims the next chunk of branch indices, returning the half-open
// range [begin, end). ok is false once the queue is drained.
func (q *workQueue) next() (begin, end int, ok bool) {
	for {
		cur := q.cursor.Load()
		remaining := q.n - q.lo - cur
		if remaining <= 0 {
			return 0, 0, false
		}
		var chunk int64
		if q.fixed > 0 {
			chunk = q.fixed
			if chunk > remaining {
				chunk = remaining
			}
		} else if q.rampUp {
			chunk = int64(RampUpChunk(int(cur), int(remaining), int(q.workers)))
		} else {
			chunk = remaining / (q.workers * guidedDivisor)
			if chunk < 1 {
				chunk = 1
			}
		}
		if q.cursor.CompareAndSwap(cur, cur+chunk) {
			return int(q.lo + cur), int(q.lo + cur + chunk), true
		}
	}
}

// emitSink serialises flushes of the per-worker emit batchers onto the user
// visitor, preserving the "the visitor is never called concurrently"
// contract. Once any visitor call returns false, stopped latches under mu
// and no further visitor calls are made — cliques still buffered in other
// workers' batches are dropped (their counts were already recorded by the
// workers that found them). batches counts flushes for Stats.EmitBatches.
type emitSink struct {
	mu    sync.Mutex
	visit Visitor
	rc    *runControl
	//hbbmc:guardedby mu
	stopped bool
	// dropped counts cliques a worker had already recorded in its Stats
	// when the stop latched, so they were never delivered; the driver
	// subtracts them to keep Stats.Cliques = cliques actually reported.
	//hbbmc:guardedby mu
	dropped int64
	batches atomic.Int64
}

// deliverLocked is the deliver-or-drop protocol of a batch flush; the
// caller holds mu. A stopped sink records the clique as dropped (the
// finding worker already counted it); a visitor refusal latches the sink
// and the run's stop flag.
func (s *emitSink) deliverLocked(c []int32) bool {
	if s.stopped {
		s.dropped++
		return false
	}
	if !s.visit(c) {
		s.stopped = true
		if s.rc != nil { // unit tests build bare sinks without a run
			s.rc.stop.Store(true)
		}
		return false
	}
	return true
}

// droppedCount reads the undelivered-clique count under the sink lock;
// callers use it after the workers join, when the lock is uncontended.
func (s *emitSink) droppedCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// emitBatchDataCap bounds the flattened vertex-id buffer of one batcher so
// graphs with huge cliques cannot grow per-worker buffers without bound: a
// batcher flushes when it holds EmitBatchSize cliques or this many ids,
// whichever comes first.
const emitBatchDataCap = 1 << 15

// emitBatcher buffers the cliques of one worker and hands them to the sink
// in batches, cutting the cross-worker lock traffic from one acquisition
// per clique to one per batch. Cliques are stored flattened (lens + data)
// so buffering costs no per-clique allocation in steady state.
type emitBatcher struct {
	sink  *emitSink
	limit int
	lens  []int32
	data  []int32
}

func newEmitBatcher(sink *emitSink, limit int) *emitBatcher {
	if limit < 1 {
		limit = 1
	}
	return &emitBatcher{sink: sink, limit: limit}
}

// add buffers one clique (copying it — the caller reuses the slice) and
// flushes when the batch is full. It always reports true: a visitor stop is
// propagated through the run's stop latch at flush time instead.
func (b *emitBatcher) add(c []int32) bool {
	b.lens = append(b.lens, int32(len(c)))
	b.data = append(b.data, c...)
	if len(b.lens) >= b.limit || len(b.data) >= emitBatchDataCap {
		b.flush()
	}
	return true
}

// flush drains the buffered cliques to the user visitor under the sink
// lock. The slices handed to the visitor alias the batch buffer and are
// invalid after the visitor returns, matching the streaming reuse contract.
// A visitor returning false latches the sink and the run's stop flag; the
// rest of the batch is discarded.
func (b *emitBatcher) flush() {
	if len(b.lens) == 0 {
		return
	}
	b.sink.mu.Lock()
	off := 0
	for _, l := range b.lens {
		c := b.data[off : off+int(l) : off+int(l)]
		off += int(l)
		b.sink.deliverLocked(c)
	}
	b.sink.mu.Unlock()
	b.sink.batches.Add(1)
	b.lens = b.lens[:0]
	b.data = b.data[:0]
}

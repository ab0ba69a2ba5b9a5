package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkQueueCoversEveryItemOnce(t *testing.T) {
	const n, workers = 5000, 8
	q := newWorkQueue(0, n, workers, 0)
	seen := make([]atomic.Int32, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				begin, end, ok := q.next()
				if !ok {
					return
				}
				for i := begin; i < end; i++ {
					seen[i].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("item %d claimed %d times", i, c)
		}
	}
}

func TestWorkQueueGuidedChunksShrink(t *testing.T) {
	const n, workers = 1024, 4
	q := newWorkQueue(0, n, workers, 0)
	var chunks []int
	for {
		begin, end, ok := q.next()
		if !ok {
			break
		}
		chunks = append(chunks, end-begin)
	}
	if chunks[0] != n/(workers*guidedDivisor) {
		t.Fatalf("first chunk %d, want %d", chunks[0], n/(workers*guidedDivisor))
	}
	for i := 1; i < len(chunks); i++ {
		if chunks[i] > chunks[i-1] {
			t.Fatalf("chunk %d grew: %v", i, chunks)
		}
	}
	if last := chunks[len(chunks)-1]; last != 1 {
		t.Fatalf("tail chunk %d, want 1", last)
	}
}

func TestWorkQueueFixedChunks(t *testing.T) {
	q := newWorkQueue(0, 20, 4, 7)
	var got []int
	for {
		begin, end, ok := q.next()
		if !ok {
			break
		}
		got = append(got, end-begin)
	}
	want := []int{7, 7, 6}
	if len(got) != len(want) {
		t.Fatalf("chunks %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunks %v, want %v", got, want)
		}
	}
}

func TestWorkQueueEmpty(t *testing.T) {
	q := newWorkQueue(0, 0, 3, 0)
	if _, _, ok := q.next(); ok {
		t.Fatal("empty queue handed out work")
	}
}

func TestEmitBatcherFlushesAtLimit(t *testing.T) {
	var got [][]int32
	sink := &emitSink{visit: func(c []int32) bool {
		got = append(got, append([]int32(nil), c...))
		return true
	}}
	b := newEmitBatcher(sink, 3)
	b.add([]int32{1})
	b.add([]int32{2, 3})
	if len(got) != 0 {
		t.Fatalf("flushed %d cliques before the batch filled", len(got))
	}
	b.add([]int32{4, 5, 6})
	if len(got) != 3 {
		t.Fatalf("batch of 3 flushed %d cliques", len(got))
	}
	b.add([]int32{7})
	b.flush()
	if len(got) != 4 {
		t.Fatalf("final flush delivered %d cliques, want 4", len(got))
	}
	want := [][]int32{{1}, {2, 3}, {4, 5, 6}, {7}}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("clique %d = %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("clique %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	if n := sink.batches.Load(); n != 2 {
		t.Fatalf("sink counted %d batches, want 2", n)
	}
}

func TestEmitBatcherDataCapForcesFlush(t *testing.T) {
	flushes := 0
	sink := &emitSink{visit: func([]int32) bool { return true }}
	b := newEmitBatcher(sink, 1<<30) // clique limit never reached
	big := make([]int32, emitBatchDataCap/4)
	for i := 0; i < 8; i++ {
		b.add(big)
		if sink.batches.Load() > int64(flushes) {
			flushes = int(sink.batches.Load())
			if len(b.data) != 0 {
				t.Fatal("flush left data buffered")
			}
		}
	}
	if flushes == 0 {
		t.Fatal("data cap never forced a flush")
	}
}

package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"
)

// int32Bytes packs c little-endian, the fuzz corpus encoding of a clique.
func int32Bytes(c ...int32) []byte {
	b := make([]byte, 4*len(c))
	for i, v := range c {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// encoderLine is the reference: what json.Encoder writes for a clique line.
func encoderLine(t testing.TB, c []int32) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(struct {
		C []int32 `json:"c"`
	}{c}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testClique(n int) []int32 {
	c := make([]int32, n)
	for i := range c {
		c[i] = int32(1_000_003 * i)
	}
	return c
}

func FuzzCliqueLine(f *testing.F) {
	f.Add(int32Bytes(math.MinInt32))
	f.Add(int32Bytes(math.MaxInt32))
	f.Add(int32Bytes(0))
	f.Add(int32Bytes(42))
	f.Add(int32Bytes(testClique(1000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := make([]int32, len(data)/4)
		if len(c) == 0 {
			return
		}
		for i := range c {
			c[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
		}
		if got, want := appendCliqueLine(nil, c), encoderLine(t, c); !bytes.Equal(got, want) {
			t.Fatalf("clique line %q, json.Encoder %q", got, want)
		}
	})
}

// splitLines splits taken bytes into NDJSON lines.
func splitLines(b []byte) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out
}

func TestCliquePipeTakesSinglePut(t *testing.T) {
	p := newCliquePipe(8, nil)
	if !p.put([]int32{3, 1, 4}, nil) {
		t.Fatal("put on an empty pipe failed")
	}
	<-p.ready // the first pending line wakes the handler
	got, n, closed := p.take(nil)
	if n != 1 || closed || string(got) != "{\"c\":[3,1,4]}\n" {
		t.Fatalf("take = %q, %d cliques, closed %v", got, n, closed)
	}
}

func TestCliquePipeBlocksWhenFull(t *testing.T) {
	for _, limit := range []int{1, 4} {
		p := newCliquePipe(limit, nil)
		for i := 0; i < limit; i++ {
			if !p.put([]int32{int32(i)}, nil) {
				t.Fatalf("limit %d: put %d failed", limit, i)
			}
		}
		returned := make(chan bool)
		go func() { returned <- p.put([]int32{int32(limit)}, nil) }()
		select {
		case <-returned:
			t.Fatalf("limit %d: put on a full pipe returned before any take", limit)
		case <-time.After(20 * time.Millisecond):
		}
		if _, n, _ := p.take(nil); n != limit {
			t.Fatalf("limit %d: took %d cliques, want %d", limit, n, limit)
		}
		if !<-returned {
			t.Fatalf("limit %d: blocked put failed after a take", limit)
		}
		if got, n, _ := p.take(nil); n != 1 || string(got) != "{\"c\":["+strconv.Itoa(limit)+"]}\n" {
			t.Fatalf("limit %d: after the take, pipe holds %q (%d cliques)", limit, got, n)
		}
	}
}

func TestCliquePipeBlockedPutReturnsOnDone(t *testing.T) {
	p := newCliquePipe(2, nil)
	p.put([]int32{1}, nil)
	p.put([]int32{2}, nil)
	done := make(chan struct{})
	returned := make(chan bool)
	go func() { returned <- p.put([]int32{3}, done) }()
	close(done)
	if <-returned {
		t.Fatal("blocked put reported success after its done channel closed")
	}
	if got, n, _ := p.take(nil); n != 2 || len(splitLines(got)) != 2 {
		t.Fatalf("pipe holds %q (%d cliques), want the two puts before the full mark", got, n)
	}
}

func TestCliquePipeCloseHandsOverPending(t *testing.T) {
	p := newCliquePipe(4, nil)
	p.put([]int32{1, 2}, nil)
	p.put([]int32{3}, nil)
	p.close()
	got, n, closed := p.take(nil)
	if !closed || n != 2 || string(got) != "{\"c\":[1,2]}\n{\"c\":[3]}\n" {
		t.Fatalf("take after close = %q, %d cliques, closed %v", got, n, closed)
	}
	// An empty closed pipe still wakes the handler, which then ends.
	q := newCliquePipe(4, nil)
	q.close()
	<-q.ready
	if got, n, closed := q.take(nil); !closed || n != 0 || len(got) != 0 {
		t.Fatalf("empty closed pipe: %q, %d cliques, closed %v", got, n, closed)
	}
}

func TestCliquePipeMarkerFollowsItsCliques(t *testing.T) {
	const k = 3
	p := newCliquePipe(k, nil)
	for i := 0; i < k; i++ {
		p.put([]int32{int32(i), int32(i + 10)}, nil)
	}
	p.mark(17) // on a full pipe: markers never count toward the limit
	got, n, _ := p.take(nil)
	ls := splitLines(got)
	if n != k || len(ls) != k+1 || ls[k] != `{"ckpt":17}` {
		t.Fatalf("take = %q (%d cliques), want %d cliques then the marker", got, n, k)
	}
	for i, l := range ls[:k] {
		if want := encoderLine(t, []int32{int32(i), int32(i + 10)}); l+"\n" != string(want) {
			t.Fatalf("line %d = %q, want %q", i, l, want)
		}
	}
}

// TestCliquePipeConcurrentProducers runs several producers into a small
// pipe against one taking handler: every clique arrives exactly once, each
// producer's lines in its own order, and no put is lost to a missed wake-up.
func TestCliquePipeConcurrentProducers(t *testing.T) {
	const producers, per, limit = 8, 500, 3
	p := newCliquePipe(limit, nil)
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if !p.put([]int32{int32(w), int32(i)}, nil) {
					t.Error("put failed without a done channel")
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		p.close()
	}()
	next := make([]int32, producers)
	total := 0
	var buf []byte
	for closed := false; !closed; {
		<-p.ready
		var n int
		buf, n, closed = p.take(buf)
		if n > limit {
			t.Fatalf("took %d cliques from a pipe bounded at %d", n, limit)
		}
		for _, l := range splitLines(buf) {
			var rec struct{ C []int32 }
			if err := json.Unmarshal([]byte(l), &rec); err != nil || len(rec.C) != 2 {
				t.Fatalf("bad line %q: %v", l, err)
			}
			if w, i := rec.C[0], rec.C[1]; next[w] != i {
				t.Fatalf("producer %d: got clique %d, want %d", w, i, next[w])
			}
			next[rec.C[0]]++
			total++
		}
	}
	if total != producers*per {
		t.Fatalf("received %d cliques, want %d", total, producers*per)
	}
}

// TestCliquePipeAllocFree is the stream's allocation gate: once both
// buffers have grown, a put of a 64-vertex clique and the take that drains
// it allocate nothing.
func TestCliquePipeAllocFree(t *testing.T) {
	const batch = 64
	c := testClique(64)
	p := newCliquePipe(1024, nil)
	var spare []byte
	round := func() {
		for i := 0; i < batch; i++ {
			p.put(c, nil)
		}
		spare, _, _ = p.take(spare)
	}
	round()
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("put+take allocates %.2f per %d cliques, want 0", a, batch)
	}
}

// BenchmarkCliquePipe measures one 64-vertex clique through the pipe: the
// producer's encode and put on one goroutine, the handler's take and write
// on another. ns/op and allocs/op are per clique.
func BenchmarkCliquePipe(b *testing.B) {
	c := testClique(64)
	p := newCliquePipe(1024, nil)
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			p.put(c, nil)
		}
		p.close()
	}()
	var buf []byte
	for closed := false; !closed; {
		<-p.ready
		buf, _, closed = p.take(buf)
		_, _ = io.Discard.Write(buf)
	}
}

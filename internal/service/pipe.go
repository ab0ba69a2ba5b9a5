package service

import (
	"strconv"
	"sync"
	"time"

	"github.com/graphmining/hbbmc/internal/obs"
)

// cliquePipe is the bounded byte pipe between a streaming job's producers
// (the enumerate visitor, the top_k push, the coordinator's merge) and its
// NDJSON handler. A producer appends each clique as its finished line; the
// handler swaps out everything pending in one take and writes it with one
// flush. At most limit cliques wait in the pipe: a put on a full pipe blocks
// until the handler takes or the job's context ends, which is the service's
// backpressure. Checkpoint markers ride in the same buffer after their
// unit's cliques and never count toward the limit. The handler hands each
// written buffer back as the next take's spare, so in steady state two
// buffers circulate and a clique costs no allocation.
type cliquePipe struct {
	limit int
	stall *obs.Histogram // times each blocked put
	// ready holds a token while lines are pending or the pipe is closed;
	// room holds one while a take has freed space for a blocked put.
	ready, room chan struct{}

	mu sync.Mutex
	//hbbmc:guardedby mu
	buf []byte // pending NDJSON lines
	//hbbmc:guardedby mu
	n int // cliques in buf
	//hbbmc:guardedby mu
	closed bool
}

func newCliquePipe(limit int, stall *obs.Histogram) *cliquePipe {
	return &cliquePipe{
		limit: limit,
		stall: stall,
		ready: make(chan struct{}, 1),
		room:  make(chan struct{}, 1),
	}
}

// signal leaves a token in a one-slot channel unless one is already there.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put appends c's line, blocking while limit cliques are pending. It
// returns false, with nothing appended, when done closes first.
func (p *cliquePipe) put(c []int32, done <-chan struct{}) bool {
	p.mu.Lock()
	if p.n >= p.limit {
		start := time.Now()
		for p.n >= p.limit {
			p.mu.Unlock()
			select {
			case <-p.room:
			case <-done:
				p.stall.ObserveDuration(time.Since(start))
				return false
			}
			p.mu.Lock()
		}
		p.stall.ObserveDuration(time.Since(start))
		if p.n+1 < p.limit {
			signal(p.room) // wake the next blocked producer, if any
		}
	}
	if len(p.buf) == 0 {
		signal(p.ready)
	}
	p.buf = appendCliqueLine(p.buf, c)
	p.n++
	p.mu.Unlock()
	return true
}

// mark appends the checkpoint marker {"ckpt":w}: every clique of residue +
// branches [0, w) is above it in the stream and the watermark is durable in
// the journal. A client that loses the connection discards whatever it
// received after the last marker and reconnects with ?resume_after=w to see
// the remaining cliques exactly once.
func (p *cliquePipe) mark(w int) {
	p.mu.Lock()
	if len(p.buf) == 0 {
		signal(p.ready)
	}
	b := append(p.buf, `{"ckpt":`...)
	b = strconv.AppendInt(b, int64(w), 10)
	p.buf = append(b, "}\n"...)
	p.mu.Unlock()
}

// close ends the stream once every producer has finished; the take that
// reports it closed also hands over the last pending lines. A nil pipe (a
// job type without a stream) is a no-op.
func (p *cliquePipe) close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	signal(p.ready)
}

// take swaps everything pending for spare, which must no longer be in use,
// and returns the lines, the number of cliques among them and whether the
// pipe is closed (then no line follows these).
func (p *cliquePipe) take(spare []byte) (lines []byte, n int, closed bool) {
	p.mu.Lock()
	lines, n, closed = p.buf, p.n, p.closed
	p.buf, p.n = spare[:0], 0
	p.mu.Unlock()
	if n >= p.limit {
		signal(p.room)
	}
	return lines, n, closed
}

// appendCliqueLine appends c's NDJSON line, byte for byte what
// json.Encoder writes for struct{ C []int32 `json:"c"` }.
func appendCliqueLine(dst []byte, c []int32) []byte {
	dst = append(dst, `{"c":[`...)
	for i, v := range c {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, "]}\n"...)
}

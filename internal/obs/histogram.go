package obs

import (
	"bufio"
	"fmt"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram. Observations are raw
// nanosecond durations; the exposition renders bucket bounds, sum and
// quantile-friendly cumulative counts in seconds (the Prometheus base
// unit). The bucket array is sized at construction and never grows, so an
// observation is a bounded scan plus two atomic adds — no allocation, no
// lock (see Observe).
type Histogram struct {
	name, help string
	// bounds are the inclusive upper bucket bounds in nanoseconds,
	// ascending; secs caches them in seconds for rendering.
	bounds []int64
	secs   []float64
	// counts[i] is the non-cumulative count of bucket i; the final extra
	// element is the +Inf bucket. Rendering accumulates them.
	counts []atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// Histogram registers and returns a histogram whose bucket upper bounds
// are the given durations (ascending).
func (r *Registry) Histogram(name, help string, buckets []time.Duration) *Histogram {
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: make([]int64, len(buckets)),
		secs:   make([]float64, len(buckets)),
		counts: make([]atomic.Int64, len(buckets)+1),
	}
	for i, b := range buckets {
		h.bounds[i] = int64(b)
		h.secs[i] = b.Seconds()
		if i > 0 && h.bounds[i] <= h.bounds[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	r.mu.Lock()
	r.hists = append(r.hists, h)
	r.mu.Unlock()
	return h
}

// LatencyBuckets is the default bucket ladder for request-scale latencies
// (1ms .. 60s).
func LatencyBuckets() []time.Duration {
	return []time.Duration{
		time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
		100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2500 * time.Millisecond, 5 * time.Second,
		10 * time.Second, 30 * time.Second, time.Minute,
	}
}

// FineBuckets is the default bucket ladder for sub-request costs — fsync,
// stream stalls, shard round trips (10µs .. 10s).
func FineBuckets() []time.Duration {
	return []time.Duration{
		10 * time.Microsecond, 50 * time.Microsecond, 100 * time.Microsecond,
		500 * time.Microsecond, time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond,
		500 * time.Millisecond, time.Second, 5 * time.Second, 10 * time.Second,
	}
}

// Observe records one duration of v nanoseconds. Negative observations
// clamp to zero (a clock step must not corrupt the count/sum relation).
// The bucket scan is bounded by the fixed bucket count and the updates
// are atomic adds, so concurrent observers never block each other.
//
//hbbmc:noalloc
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records one duration.
//
//hbbmc:noalloc
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// writeSeries renders the histogram's bucket/sum/count series. The counts
// are loaded bucket by bucket, so a scrape racing observations may see a
// sum slightly ahead of the buckets — the standard, documented slack of
// lock-free Prometheus histograms.
func (h *Histogram) writeSeries(w *bufio.Writer) {
	var cum int64
	for i, sec := range h.secs {
		cum += h.counts[i].Load()
		writeSample(w, h.name+`_bucket{le="`+formatFloat(sec)+`"}`, fmt.Sprint(cum))
	}
	cum += h.counts[len(h.secs)].Load()
	writeSample(w, h.name+`_bucket{le="+Inf"}`, fmt.Sprint(cum))
	writeSample(w, h.name+"_sum", formatFloat(float64(h.sum.Load())/1e9))
	writeSample(w, h.name+"_count", fmt.Sprint(cum))
}

package obs

import (
	"testing"
	"time"
)

// TestObsHotPathAllocs gates the hot-path guarantee the package documents:
// histogram observation and span recording allocate nothing. A regression
// here means the enumeration path started paying GC for its own telemetry.
func TestObsHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "test", LatencyBuckets())
	tr := NewTrace()
	start := time.Now()

	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveDuration(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("Histogram.ObserveDuration allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tr.Record("run", start, time.Millisecond)
		tr.mu.Lock()
		tr.n = 0 // keep the arena from filling; resetting is index arithmetic
		tr.mu.Unlock()
	}); n != 0 {
		t.Fatalf("Trace.Record allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tr.RecordRange("checkpoint", 0, 64, start, time.Millisecond)
		tr.mu.Lock()
		tr.n = 0
		tr.mu.Unlock()
	}); n != 0 {
		t.Fatalf("Trace.RecordRange allocates %v per op, want 0", n)
	}
}

// BenchmarkObsOverhead measures the per-event cost of the two hot-path
// instrumentation primitives. Run with -benchmem: the gate is 0 allocs/op.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("HistogramObserve", func(b *testing.B) {
		r := NewRegistry()
		h := r.Histogram("b_seconds", "bench", LatencyBuckets())
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			v := int64(17)
			for pb.Next() {
				h.Observe(v)
				v = (v * 2654435761) % int64(90*time.Second)
			}
		})
	})
	b.Run("TraceRecord", func(b *testing.B) {
		tr := NewTrace()
		start := time.Now()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Record("run", start, time.Millisecond)
			if i%DefaultSpanCap == DefaultSpanCap-1 {
				tr.mu.Lock()
				tr.n = 0
				tr.mu.Unlock()
			}
		}
	})
}

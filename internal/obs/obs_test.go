package obs

import (
	"strings"
	"testing"
	"time"
)

// TestHistogramBucketMath drives known observations through a small
// bucket ladder and checks the cumulative bucket counts, sum and count —
// the arithmetic the exposition renders.
func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t_seconds", "test", []time.Duration{
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	})
	obs := []time.Duration{
		500 * time.Microsecond,  // bucket 0 (le 1ms)
		time.Millisecond,        // bucket 0 (inclusive upper bound)
		2 * time.Millisecond,    // bucket 1
		10 * time.Millisecond,   // bucket 1
		50 * time.Millisecond,   // bucket 2
		250 * time.Millisecond,  // +Inf
		1500 * time.Millisecond, // +Inf
	}
	var wantSum int64
	for _, d := range obs {
		h.ObserveDuration(d)
		wantSum += int64(d)
	}
	if got := h.Count(); got != int64(len(obs)) {
		t.Fatalf("Count = %d, want %d", got, len(obs))
	}
	if got := h.Sum(); got != wantSum {
		t.Fatalf("Sum = %d, want %d", got, wantSum)
	}
	wantCounts := []int64{2, 2, 1, 2} // per-bucket, +Inf last
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d count = %d, want %d", i, got, want)
		}
	}
	// Negative observations clamp to zero instead of corrupting the sum.
	h.Observe(-5)
	if got := h.counts[0].Load(); got != 3 {
		t.Fatalf("negative observation landed in bucket %d times, want 3", got)
	}
	if got := h.Sum(); got != wantSum {
		t.Fatalf("negative observation moved Sum to %d, want %d", got, wantSum)
	}
}

// TestWritePrometheus checks the exposition output: HELP/TYPE headers,
// cumulative le buckets ending at +Inf, sum/count series, and name-sorted
// order.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_jobs_total", "Jobs.")
	c.Add(7)
	g := r.Gauge("t_running", "Running.")
	g.Set(-2)
	r.Func("t_sampled", "Sampled.", KindGauge, func() float64 { return 1.5 })
	h := r.Histogram("t_phase_seconds", "Per-phase time.",
		[]time.Duration{time.Millisecond, time.Second})
	h.ObserveDuration(2 * time.Millisecond)
	h.ObserveDuration(500 * time.Microsecond)
	h.ObserveDuration(2 * time.Second)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP t_jobs_total Jobs.\n# TYPE t_jobs_total counter\nt_jobs_total 7\n",
		"# TYPE t_running gauge\nt_running -2\n",
		"t_sampled 1.5\n",
		"# TYPE t_phase_seconds histogram\n",
		`t_phase_seconds_bucket{le="0.001"} 1`,
		`t_phase_seconds_bucket{le="1"} 2`,
		`t_phase_seconds_bucket{le="+Inf"} 3`,
		`t_phase_seconds_sum 2.0025`,
		`t_phase_seconds_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families render sorted by name.
	if strings.Index(out, "t_jobs_total") > strings.Index(out, "t_running") {
		t.Fatalf("families not sorted:\n%s", out)
	}
	// Two scrapes agree byte for byte (stable order).
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatalf("unstable exposition output:\n%s\nvs\n%s", out, sb2.String())
	}
}

// TestWriteJSON checks the flat JSON view: only counters, gauges and
// sampled metrics under the prefix, keys sorted, sampled values in plain
// decimal (never exponent form, which integer decoders reject). The
// exposition renders the same integral sample the same way, so a textual
// comparison of the two views holds.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_jobs", "Jobs.").Add(7)
	r.Gauge("t_running", "Running.").Set(-2)
	r.Func("t_bytes", "Bytes.", KindCounter, func() float64 { return 2500000 })
	r.Func("t_ratio", "Ratio.", KindGauge, func() float64 { return 1.5 })
	r.Histogram("t_seconds", "Histogram.", []time.Duration{time.Second})
	r.Counter("other_jobs", "Other prefix.").Add(1)

	var sb strings.Builder
	if err := r.WriteJSON(&sb, "t_"); err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"t_bytes\": 2500000,\n  \"t_jobs\": 7,\n  \"t_ratio\": 1.5,\n  \"t_running\": -2\n}\n"
	if sb.String() != want {
		t.Fatalf("WriteJSON:\n%s\nwant\n%s", sb.String(), want)
	}
	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\nt_bytes 2500000\n") {
		t.Fatalf("exposition renders the sampled 2500000 differently:\n%s", prom.String())
	}
}

// TestGoRuntimeMetrics spot-checks the runtime collector output.
func TestGoRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	r.RegisterGoRuntime()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE go_goroutines gauge",
		"# TYPE go_heap_alloc_bytes gauge",
		"# TYPE go_gc_cycles_total counter",
		"# TYPE go_gc_pause_seconds_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime exposition missing %q:\n%s", want, out)
		}
	}
}

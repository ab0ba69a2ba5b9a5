package obs

import (
	"runtime"
	"sync"
	"time"
)

// RegisterGoRuntime registers the Go runtime gauges and counters:
// goroutine count, heap alloc/sys bytes, GC cycle count and cumulative GC
// pause time. runtime.ReadMemStats is sampled at most once per second —
// one scrape reads a consistent snapshot, and scrape storms cannot turn
// the stats read into load.
func (r *Registry) RegisterGoRuntime() {
	var mu sync.Mutex
	var ms runtime.MemStats
	var last time.Time
	memstats := func() runtime.MemStats {
		mu.Lock()
		defer mu.Unlock()
		if last.IsZero() || time.Since(last) > time.Second {
			runtime.ReadMemStats(&ms)
			last = time.Now()
		}
		return ms
	}
	r.Func("go_goroutines", "Number of live goroutines.", KindGauge,
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.Func("go_heap_alloc_bytes", "Bytes of allocated heap objects.", KindGauge,
		func() float64 { m := memstats(); return float64(m.HeapAlloc) })
	r.Func("go_heap_sys_bytes", "Bytes of heap memory obtained from the OS.", KindGauge,
		func() float64 { m := memstats(); return float64(m.HeapSys) })
	r.Func("go_gc_cycles_total", "Completed GC cycles.", KindCounter,
		func() float64 { m := memstats(); return float64(m.NumGC) })
	r.Func("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", KindCounter,
		func() float64 { m := memstats(); return float64(m.PauseTotalNs) / 1e9 })
}

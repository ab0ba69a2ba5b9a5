// Package obs is mced's dependency-free observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms) rendered in the
// Prometheus text exposition format or as a flat JSON object of its
// unlabelled counters and gauges, and per-job trace timelines with a
// traceparent-style propagation header for the distributed coordinator.
//
// The package is deliberately stdlib-only and hot-path friendly:
//
//   - a histogram observation is one atomic add into a pre-sized bucket
//     array plus one atomic add into the sum — no allocation, no lock;
//   - a span record is one index assignment into a pre-sized span arena
//     under a mutex — no allocation; spans past the arena capacity are
//     dropped and counted rather than grown;
//   - everything that allocates (registration, rendering, trace views)
//     happens off the enumeration path.
//
// The //hbbmc:noalloc annotations on Histogram.Observe and Trace.Record
// make the zero-allocation claim machine-checked (internal/analysis), and
// BenchmarkObsOverhead gates it with testing.AllocsPerRun.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric for the TYPE line of the exposition format.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct {
	name, help, label string
	v                 atomic.Int64
}

// Add increments the counter by delta (which must be non-negative).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	name, help, label string
	v                 atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// funcMetric is a metric sampled at scrape time — the bridge for values
// owned elsewhere (another package's counters, Go runtime stats).
type funcMetric struct {
	name, help, label string
	kind              Kind
	fn                func() float64
}

// Registry holds a set of metrics and renders them in the Prometheus text
// exposition format. Metrics sharing a family name (for example, the
// per-phase histograms, which differ only in their const label) are
// rendered under one HELP/TYPE header. Registration is cheap but not
// hot-path; observation methods on the returned metrics are.
type Registry struct {
	mu sync.Mutex
	//hbbmc:guardedby mu
	hists []*Histogram
	//hbbmc:guardedby mu
	counters []*Counter
	//hbbmc:guardedby mu
	gauges []*Gauge
	//hbbmc:guardedby mu
	funcs []funcMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter registers and returns a counter. label is a pre-rendered const
// label ("" = none), e.g. `phase="universe"`.
func (r *Registry) Counter(name, help, label string) *Counter {
	c := &Counter{name: name, help: help, label: label}
	r.mu.Lock()
	r.counters = append(r.counters, c)
	r.mu.Unlock()
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help, label string) *Gauge {
	g := &Gauge{name: name, help: help, label: label}
	r.mu.Lock()
	r.gauges = append(r.gauges, g)
	r.mu.Unlock()
	return g
}

// Func registers a metric sampled at scrape time by fn.
func (r *Registry) Func(name, help, label string, kind Kind, fn func() float64) {
	r.mu.Lock()
	r.funcs = append(r.funcs, funcMetric{name: name, help: help, label: label, kind: kind, fn: fn})
	r.mu.Unlock()
}

// family groups every series of one metric name for rendering.
type family struct {
	name, help string
	kind       Kind
	write      []func(w *bufio.Writer)
}

// WritePrometheus renders every registered metric in the text exposition
// format (version 0.0.4): families sorted by name, one HELP/TYPE header
// per family, label variants in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hists := append([]*Histogram(nil), r.hists...)
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	funcs := append([]funcMetric(nil), r.funcs...)
	r.mu.Unlock()

	fams := make(map[string]*family)
	var order []string
	add := func(name, help string, kind Kind, write func(w *bufio.Writer)) {
		f := fams[name]
		if f == nil {
			f = &family{name: name, help: help, kind: kind}
			fams[name] = f
			order = append(order, name)
		}
		f.write = append(f.write, write)
	}
	for _, c := range counters {
		add(c.name, c.help, KindCounter, func(w *bufio.Writer) {
			writeSample(w, c.name, c.label, strconv.FormatInt(c.Value(), 10))
		})
	}
	for _, g := range gauges {
		add(g.name, g.help, KindGauge, func(w *bufio.Writer) {
			writeSample(w, g.name, g.label, strconv.FormatInt(g.Value(), 10))
		})
	}
	for _, fm := range funcs {
		add(fm.name, fm.help, fm.kind, func(w *bufio.Writer) {
			writeSample(w, fm.name, fm.label, formatFloat(fm.fn()))
		})
	}
	for _, h := range hists {
		add(h.name, h.help, KindHistogram, h.writeSeries)
	}
	sort.Strings(order)

	bw := bufio.NewWriter(w)
	for _, name := range order {
		f := fams[name]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, write := range f.write {
			write(bw)
		}
	}
	return bw.Flush()
}

// WriteJSON renders the counters, gauges and sampled metrics whose names
// start with prefix as one flat JSON object of name → value, keys sorted
// for stable diffs. Histograms and labelled series have no single flat
// value and are left out.
func (r *Registry) WriteJSON(w io.Writer, prefix string) error {
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	funcs := append([]funcMetric(nil), r.funcs...)
	r.mu.Unlock()

	values := make(map[string]string)
	flat := func(name, label string) bool { return label == "" && strings.HasPrefix(name, prefix) }
	for _, c := range counters {
		if flat(c.name, c.label) {
			values[c.name] = strconv.FormatInt(c.Value(), 10)
		}
	}
	for _, g := range gauges {
		if flat(g.name, g.label) {
			values[g.name] = strconv.FormatInt(g.Value(), 10)
		}
	}
	for _, fm := range funcs {
		if flat(fm.name, fm.label) {
			values[fm.name] = strconv.FormatFloat(fm.fn(), 'f', -1, 64)
		}
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("{\n")
	for i, name := range slices.Sorted(maps.Keys(values)) {
		sep := ","
		if i == len(values)-1 {
			sep = ""
		}
		fmt.Fprintf(bw, "  %q: %s%s\n", name, values[name], sep)
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

func writeSample(w *bufio.Writer, name, label, value string) {
	if label == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
	} else {
		fmt.Fprintf(w, "%s{%s} %s\n", name, label, value)
	}
}

// formatFloat renders a sample value: shortest representation that
// round-trips, matching the Prometheus client convention.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

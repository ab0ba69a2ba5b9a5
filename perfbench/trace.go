package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program. Spans of one pass,
// set-up or job share a group id; parent links a call to the span that made
// it (-1 for none). side marks calls the traced run makes beside the
// workload's own, to time a layer separately; they are excluded from the
// traced pass time that the tracing overhead compares.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Group  string `json:"group"`
	Start  int64  `json:"start_ns"` // since the run started
	End    int64  `json:"end_ns"`
	Side   bool   `json:"side,omitempty"`
}

// tracer keeps the spans of a traced run in memory; writeFile dumps them at
// exit. A nil tracer records nothing, which is how untraced passes run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// record adds a finished span and returns its id.
func (t *tracer) record(group, name string, parent int32, start, end time.Time, side bool) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Group: group,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Side: side})
	return id
}

// open records a span whose end is set later by close, for a parent whose
// children are recorded first.
func (t *tracer) open(group, name string, parent int32, start time.Time) int32 {
	return t.record(group, name, parent, start, start, false)
}

func (t *tracer) close(id int32, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// sums returns, for one group, the total duration of its spans by name, and
// the time its side calls took outside any other side call.
func (t *tracer) sums(group string) (byName map[string]time.Duration, side time.Duration) {
	byName = map[string]time.Duration{}
	if t == nil {
		return byName, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Group != group {
			continue
		}
		d := time.Duration(s.End - s.Start)
		byName[s.Name] += d
		if s.Side && (s.Parent < 0 || !t.spans[s.Parent].Side) {
			side += d
		}
	}
	return byName, side
}

// selfTimes returns every span name's total self time: its duration minus
// the part of it its children cover. Children may overlap one another (the
// jobs of two clients, a server's run and drain spans), so the covered part
// is the union of their intervals.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, p := range t.spans {
		d := p.End - p.Start
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := p.Start
		for _, c := range kids {
			lo, hi := max(c.Start, covered), min(c.End, p.End)
			if hi > lo {
				d -= hi - lo
				covered = hi
			}
		}
		self[p.Name] += time.Duration(d)
	}
	return self
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerSet collects per-layer values, one sample per pass or set-up, and
// reports each as the median of its samples.
type layerSet map[string][]float64

func (l layerSet) add(name string, v float64) { l[name] = append(l[name], v) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

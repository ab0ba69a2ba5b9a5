package main

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
)

// layerMetrics are the per-layer metrics a traced run reports, in the order
// BENCHMARK.json lists them. Times are per pass, summed over its calls into
// the layer; counts are the Stats of the workload's own queries. The end-to-
// end metric each should move when its layer gets faster:
//
//	graph.load_s            first_clique_s and wall_s on suite-hbbmc; only
//	                        setup_s on serve-mixed
//	reduce.*                first_clique_s on suite-hbbmc; setup_s on
//	                        serve-mixed (most of an RRef session build)
//	order.degeneracy_s      only setup_s on serve-mixed, which builds RRef
//	                        sessions there; HBBMC++ orders by truss
//	truss.*                 first_clique_s and wall_s on suite-hbbmc; only
//	                        setup_s on serve-mixed (incidence is inside
//	                        decompose)
//	core.session_s          first_clique_s on suite-hbbmc
//	core.<query>_s          wall_s on suite-hbbmc (enumerate) and jobs_per_s
//	                        on serve-mixed; delivery_s is enumerate minus
//	                        count on the same sessions
//	core.speedup_2w.*       jobs_per_s and job_p95_ms on serve-mixed, whose
//	                        two-worker jobs hold both slots; nothing on
//	                        suite-hbbmc, which runs one worker
//	core counts             wall_s on suite-hbbmc (ET, edge branches) and
//	                        serve-mixed (BnB, emit batches)
//	service.*               job_p50_ms (submit, queue wait), job_p95_ms and
//	                        jobs_per_s (drain) on serve-mixed; suite-hbbmc
//	                        measures them in its service probe
//
// Layer calls a pass does not make are timed beside it: suite-hbbmc runs
// the other queries on its sessions at one and two workers and each cold
// query under RRef, and every traced set-up or pass calls the preprocessing
// layers on the session's graph.
var layerMetrics = []struct{ name, unit string }{
	{"graph.load_s", "s"},
	{"reduce.apply_s", "s"},
	{"reduce.removed_vertices", "count"},
	{"order.degeneracy_s", "s"},
	{"truss.decompose_s", "s"},
	{"truss.incidence_s", "s"},
	{"core.session_s", "s"},
	{"core.enumerate_s", "s"},
	{"core.count_s", "s"},
	{"core.max_clique_s", "s"},
	{"core.top_k_s", "s"},
	{"core.kclique_count_s", "s"},
	{"core.delivery_s", "s"},
	{"core.speedup_2w.enumerate", "x"},
	{"core.speedup_2w.count", "x"},
	{"core.speedup_2w.max_clique", "x"},
	{"core.speedup_2w.top_k", "x"},
	{"core.speedup_2w.kclique_count", "x"},
	{"core.calls", "count"},
	{"core.top_branches", "count"},
	{"core.plex_branches", "count"},
	{"core.early_terminations", "count"},
	{"core.et_ratio", "ratio"},
	{"core.bnb_calls", "count"},
	{"core.bnb_prune_ratio", "ratio"},
	{"core.emit_batches", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.first_line_ms", "ms"},
	{"service.drain_ms", "ms"},
	{"service.poll_ms", "ms"},
	{"service.session_hit_ratio", "ratio"},
	{"service.stream_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// spanLayers are the span names whose per-pass totals are layer times.
var spanLayers = []string{"graph.load", "reduce.apply", "order.degeneracy", "truss.decompose",
	"truss.incidence", "core.session", "core.enumerate", "core.count", "core.max_clique",
	"core.top_k", "core.kclique_count"}

// collectLayers adds one traced pass's or set-up's samples to ls: the total
// time of each layer it called and its counts.
func collectLayers(ls layerSet, p *pass) {
	if p.tr == nil {
		return
	}
	byName, _ := p.tr.sums(p.group)
	for _, n := range spanLayers {
		if d, ok := byName[n]; ok {
			ls.add(n+"_s", d.Seconds())
		}
	}
	for k, v := range p.layer {
		ls.add(k, v)
	}
}

// source is one set of per-layer samples and where they come from.
type source struct {
	name string
	set  layerSet
}

func layersOf(passes []*pass) layerSet {
	ls := layerSet{}
	for _, p := range passes {
		collectLayers(ls, p)
	}
	return ls
}

// perLayer reports each per-layer metric as the median of the first source
// that measured it: the traced passes; the set-ups, for layers only the
// set-up calls (serve-mixed loads graphs, builds sessions and checks every
// query type there); or suite-hbbmc's service probe. It prints
// the table, the self times and the tracing overhead: traced pass time
// without its side calls against untraced pass time.
func perLayer(b *bench, w workload, sources []source, plain, traced []*pass) map[string]metric {
	var tracedWalls, plainWalls []float64
	for _, p := range traced {
		_, side := p.tr.sums(p.group)
		tracedWalls = append(tracedWalls, (p.wall - side).Seconds())
	}
	for _, p := range plain {
		plainWalls = append(plainWalls, p.wall.Seconds())
	}
	values := map[string]float64{}
	from := map[string]string{}
	// pick takes a metric from the first source that measured it; with den
	// set, it is the ratio of two medians.
	pick := func(name, num, den string) {
		from[name] = "not called"
		for _, src := range sources {
			if len(src.set[num]) == 0 {
				continue
			}
			v := median(src.set[num])
			if den != "" {
				if d := median(src.set[den]); d != 0 {
					v /= d
				} else {
					v = 0
				}
			}
			values[name], from[name] = v, src.name
			return
		}
	}
	for _, m := range layerMetrics {
		pick(m.name, m.name, "")
	}
	pick("core.et_ratio", "core.early_terminations", "core.plex_branches")
	pick("core.bnb_prune_ratio", "core.bnb_prunes", "core.bnb_calls")
	pick("service.session_hit_ratio", "service.session_hits", "service.jobs")
	if pw := median(plainWalls); pw > 0 {
		values["trace.overhead_pct"] = (median(tracedWalls)/pw - 1) * 100
		from["trace.overhead_pct"] = fmt.Sprintf("traced %.3fs vs untraced %.3fs", median(tracedWalls), pw)
	}

	f := os.Stderr
	fmt.Fprintf(f, "\nper-layer metrics (%d traced, %d untraced passes; medians)\n", len(traced), len(plain))
	out := map[string]metric{}
	for _, m := range layerMetrics {
		out[m.name] = metric{values[m.name], m.unit}
		fmt.Fprintf(f, "  %-32s %14.6g %-6s %s\n", m.name, values[m.name], m.unit, from[m.name])
	}
	fmt.Fprintf(f, "\nself time by span (all traced passes and set-ups; s)\n")
	self := map[string]float64{}
	for name, d := range b.tr.selfTimes() {
		if strings.HasPrefix(name, "graph ") {
			name = "graph * (checks)"
		}
		self[name] += d.Seconds()
	}
	for _, name := range slices.Sorted(maps.Keys(self)) {
		fmt.Fprintf(f, "  %-32s %10.4f\n", name, self[name])
	}
	if s, ok := w.(*suite); ok {
		s.printBreakdown()
	}
	return out
}

package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/order"
	"github.com/graphmining/hbbmc/internal/reduce"
	"github.com/graphmining/hbbmc/internal/truss"
)

// queryTypes are the session query types, in the order a session runs them.
var queryTypes = []string{"enumerate", "count", "max_clique", "top_k", "kclique_count"}

const topK = 10

// runQueries runs the given query types on one session with the given
// worker count and checks each answer against in's references. Workload
// queries add their latency, first-clique wait and Stats to p; side queries
// (traced runs only) just record their span, named "core.<type><suffix>".
// It returns each query's duration.
func runQueries(b *bench, p *pass, parent int32, in *input, sess *hbbmc.Session,
	workers, k int, types []string, side bool, suffix string) map[string]time.Duration {
	ctx := context.Background()
	q := hbbmc.QueryOptions{Workers: workers}
	took := map[string]time.Duration{}
	for _, typ := range types {
		var st *hbbmc.Stats
		var err error
		var first time.Time
		t := time.Now()
		switch typ {
		case "enumerate":
			tl := newTally(in.mix)
			st, err = sess.EnumerateWith(ctx, q, tl.add)
			if err == nil {
				err = tl.check(in.ref)
			}
			first = tl.first
		case "count":
			var n int64
			n, st, err = sess.CountWith(ctx, q)
			if err == nil && n != in.ref.cliques {
				err = fmt.Errorf("counted %d maximal cliques, want %d", n, in.ref.cliques)
			}
		case "max_clique":
			var c []int32
			c, st, err = sess.MaxClique(ctx, q)
			if err == nil {
				err = checkCliques(in, [][]int32{c}, []int{in.ref.omega()})
			}
		case "top_k":
			var cs [][]int32
			cs, st, err = sess.TopK(ctx, topK, q)
			if err == nil {
				err = checkCliques(in, cs, in.ref.topSizes(topK))
			}
		case "kclique_count":
			var n int64
			n, st, err = sess.CountKCliques(ctx, k, q)
			if err == nil && n != in.ref.kcliques(k) {
				err = fmt.Errorf("counted %d %d-cliques, want %d", n, k, in.ref.kcliques(k))
			}
		}
		end := time.Now()
		took[typ] = end.Sub(t)
		b.check(fmt.Sprintf("%s %s (%d workers)", in.name, typ, workers), err)
		p.tr.record(p.group, "core."+typ+suffix, parent, t, end, side)
		if side {
			continue
		}
		p.ops++
		p.lat = append(p.lat, ms(end.Sub(t)))
		if !first.IsZero() {
			p.first += first.Sub(t)
		}
		if st != nil && p.tr != nil {
			addStats(p, st)
		}
	}
	return took
}

// checkCliques checks that cs are cliques of in's graph with the given
// sizes, in order.
func checkCliques(in *input, cs [][]int32, sizes []int) error {
	got := make([]int, len(cs))
	for i, c := range cs {
		got[i] = len(c)
		if !in.g.IsClique(c) {
			return fmt.Errorf("answer %v is not a clique", c)
		}
	}
	if !slices.Equal(got, sizes) {
		return fmt.Errorf("clique sizes %v, want %v", got, sizes)
	}
	return nil
}

// addStats adds a query's counters to the pass's per-layer counts.
func addStats(p *pass, st *hbbmc.Stats) {
	p.count("core.calls", float64(st.Calls))
	p.count("core.top_branches", float64(st.TopBranches))
	p.count("core.plex_branches", float64(st.PlexBranches))
	p.count("core.early_terminations", float64(st.EarlyTerminations))
	p.count("core.bnb_calls", float64(st.BnBCalls))
	p.count("core.bnb_prunes", float64(st.BnBPrunes))
	p.count("core.emit_batches", float64(st.EmitBatches))
}

// speedups records, per query type, the 1-worker time over the 2-worker
// time, and the delivery cost: enumeration minus count on the same session.
func speedups(p *pass, one, two map[string]time.Duration, delivery time.Duration) {
	for _, typ := range queryTypes {
		if one[typ] > 0 && two[typ] > 0 {
			p.count("core.speedup_2w."+typ, one[typ].Seconds()/two[typ].Seconds())
		}
	}
	p.count("core.delivery_s", delivery.Seconds())
}

// sumTimes adds the durations of b into a.
func sumTimes(a, b map[string]time.Duration) {
	for k, v := range b {
		a[k] += v
	}
}

// timeLayers calls the preprocessing layers on g as NewSession does, beside
// the session's own span, to time each layer separately: the reduction,
// then the degeneracy ordering, the truss decomposition and the triangle
// incidence (which the decomposition builds internally) on the residual.
func timeLayers(p *pass, parent int32, g *hbbmc.Graph) {
	t := time.Now()
	red := reduce.Apply(g, reduce.Options{})
	t1 := time.Now()
	order.DegeneracyOrdering(red.Residual)
	t2 := time.Now()
	truss.Decompose(red.Residual)
	t3 := time.Now()
	truss.BuildIncidence(red.Residual)
	t4 := time.Now()
	p.tr.record(p.group, "reduce.apply", parent, t, t1, true)
	p.tr.record(p.group, "order.degeneracy", parent, t1, t2, true)
	p.tr.record(p.group, "truss.decompose", parent, t2, t3, true)
	p.tr.record(p.group, "truss.incidence", parent, t3, t4, true)
	p.count("reduce.removed_vertices", float64(red.NumRemoved))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

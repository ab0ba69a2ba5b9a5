package main

import (
	"context"
	"fmt"
	"os"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/dataset"
)

// suite is suite-hbbmc: each pass takes the 16 stand-ins in Table-I order,
// one worker and one client, through LoadFile, NewSession(HBBMC++) and
// Enumerate into a checksum visitor, paying parsing and preprocessing on
// every query as the mce command does. Traced passes also run each cold
// query under RRef beside it, for the per-graph breakdown.
type suite struct {
	inputs []*input
	// rows is the per-graph breakdown of the last traced pass, indexed by
	// stand-in and then by algorithm (0 = HBBMC++, 1 = RRef).
	rows map[string][2]coldRow
}

type coldRow struct{ load, session, first, enum time.Duration }

func suiteOptions(rref bool) hbbmc.Options {
	if rref {
		return hbbmc.Options{Algorithm: hbbmc.BKRef, GR: true}
	}
	return hbbmc.DefaultOptions()
}

func (s *suite) setup(b *bench, dir string, _ *pass) error {
	var err error
	s.inputs, err = makeInputs(dir, b.seed, dataset.Names(), ".txt")
	return err
}

func (s *suite) close() {}

// serviceJobs asks the service for each graph's cold enumeration, then for
// a count on the session the enumeration built. A traced run sends them to
// an in-process server, so that it reports the service layer's timings for
// the workload's own queries.
func (s *suite) serviceJobs() []serveJob {
	var jobs []serveJob
	for _, in := range s.inputs {
		jobs = append(jobs, newJob(in, "enumerate", false, 1, 0), newJob(in, "count", false, 1, 0))
	}
	return jobs
}

func (s *suite) pass(b *bench, p *pass) error {
	one, two := map[string]time.Duration{}, map[string]time.Duration{}
	if p.tr != nil {
		s.rows = map[string][2]coldRow{}
	}
	for _, in := range s.inputs {
		node := p.tr.open(p.group, "graph "+in.name, p.root, time.Now())
		row, g, sess, err := coldQuery(b, p, node, in, false)
		if err != nil {
			return err
		}
		p.ops++
		p.lat = append(p.lat, ms(row.load+row.session+row.enum))
		p.first += row.first
		if p.tr != nil {
			// The other warm queries on the same session at one worker, and
			// all five at two.
			sumTimes(one, runQueries(b, p, node, in, sess, 1, 5, queryTypes[1:], true, ""))
			one["enumerate"] += row.enum
			sumTimes(two, runQueries(b, p, node, in, sess, 2, 5, queryTypes, true, "@2w"))
			s.traceSide(b, p, node, in, g, row)
		}
		p.tr.close(node, time.Now())
	}
	if p.tr != nil {
		speedups(p, one, two, one["enumerate"]-one["count"])
	}
	return nil
}

// coldQuery loads one input, builds its session and enumerates it, checking
// the answer. Traced passes record a span per call. The RRef query is made
// only beside the workload's own, for the per-graph breakdown: its spans
// are side spans named rref.* and its Stats are not counted.
func coldQuery(b *bench, p *pass, parent int32, in *input, rref bool) (coldRow, *hbbmc.Graph, *hbbmc.Session, error) {
	prefix := ""
	if rref {
		prefix = "rref."
	}
	t0 := time.Now()
	g, err := hbbmc.LoadFile(in.path, hbbmc.LoadOptions{Format: hbbmc.FormatEdgeList, Workers: 1})
	if err != nil {
		return coldRow{}, nil, nil, fmt.Errorf("loading %s: %w", in.name, err)
	}
	t1 := time.Now()
	sess, err := hbbmc.NewSession(g, suiteOptions(rref))
	if err != nil {
		return coldRow{}, nil, nil, fmt.Errorf("session for %s: %w", in.name, err)
	}
	t2 := time.Now()
	tl := newTally(in.mix)
	st, err := sess.Enumerate(context.Background(), tl.add)
	t3 := time.Now()
	if err == nil {
		err = tl.check(in.ref)
	}
	b.check(fmt.Sprintf("%s enumerate (rref=%v)", in.name, rref), err)
	p.tr.record(p.group, prefix+"graph.load", parent, t0, t1, rref)
	p.tr.record(p.group, prefix+"core.session", parent, t1, t2, rref)
	p.tr.record(p.group, prefix+"core.enumerate", parent, t2, t3, rref)
	if p.tr != nil && !rref && st != nil {
		addStats(p, st)
	}
	row := coldRow{load: t1.Sub(t0), session: t2.Sub(t1), enum: t3.Sub(t2)}
	if !tl.first.IsZero() {
		row.first = tl.first.Sub(t0)
	}
	return row, g, sess, nil
}

// traceSide makes the rest of a traced pass's calls beside the workload's
// own: the preprocessing layers one by one, and the same cold query under
// RRef for the breakdown.
func (s *suite) traceSide(b *bench, p *pass, node int32, in *input, g *hbbmc.Graph, row coldRow) {
	timeLayers(p, node, g)
	rref, _, _, err := coldQuery(b, p, node, in, true)
	if err != nil {
		b.check(in.name+" breakdown", err)
	}
	s.rows[in.name] = [2]coldRow{row, rref}
}

// printBreakdown prints the per-graph HBBMC++/RRef table of the last traced
// pass: where HBBMC++'s total beats RRef's is the crossover.
func (s *suite) printBreakdown() {
	if s.rows == nil {
		return
	}
	f := os.Stderr
	fmt.Fprintf(f, "\nper-graph breakdown, last traced pass (ms): load / session / first clique / enumerate / total\n")
	fmt.Fprintf(f, "%-3s  %-38s  %-38s  %s\n", "", "HBBMC++", "RRef", "faster")
	var tot [2]time.Duration
	for _, name := range dataset.Names() {
		r, ok := s.rows[name]
		if !ok {
			continue
		}
		var cells [2]string
		var sum [2]time.Duration
		for i, c := range r {
			sum[i] = c.load + c.session + c.enum
			tot[i] += sum[i]
			cells[i] = fmt.Sprintf("%6.1f %6.1f %6.1f %6.1f %7.1f", ms(c.load), ms(c.session), ms(c.first), ms(c.enum), ms(sum[i]))
		}
		faster := "HBBMC++"
		if sum[1] < sum[0] {
			faster = "RRef"
		}
		fmt.Fprintf(f, "%-3s  %-38s  %-38s  %s\n", name, cells[0], cells[1], faster)
	}
	fmt.Fprintf(f, "all  HBBMC++ %.1f ms, RRef %.1f ms\n", ms(tot[0]), ms(tot[1]))
}

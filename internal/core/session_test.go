package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
	"github.com/graphmining/hbbmc/internal/verify"
)

func TestRunControlBudget(t *testing.T) {
	rc := newRunControl(context.Background(), Options{MaxCliques: 3})
	for i := 0; i < 3; i++ {
		if !rc.take() {
			t.Fatalf("take %d refused within budget", i)
		}
	}
	if rc.stopped() {
		t.Fatal("stop latched before the budget was exceeded")
	}
	if rc.take() {
		t.Fatal("take succeeded beyond the budget")
	}
	if !rc.stopped() {
		t.Fatal("exhausted budget must latch the stop flag")
	}
	if err := rc.err(); !errors.Is(err, ErrStopped) {
		t.Fatalf("err() = %v, want ErrStopped", err)
	}
}

func TestRunControlUnlimited(t *testing.T) {
	rc := newRunControl(context.Background(), Options{})
	for i := 0; i < 1000; i++ {
		if !rc.take() {
			t.Fatal("unlimited control refused a clique")
		}
	}
	if rc.halted() || rc.err() != nil {
		t.Fatal("unlimited, uncancelled control reported a stop")
	}
}

func TestRunControlCancelLatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rc := newRunControl(ctx, Options{})
	if rc.halted() {
		t.Fatal("halted before cancellation")
	}
	cancel()
	if !rc.halted() {
		t.Fatal("halted() missed the cancellation")
	}
	if !rc.stopped() {
		t.Fatal("observing a done context must latch stop for the recursions")
	}
	if err := rc.err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err() = %v, want wrapped context.Canceled", err)
	}
}

// TestRunControlLateCancelNotMisreported pins err() to what the run
// actually observed: a context expiring after the work finished (or after
// a budget stop) must not repaint the outcome as an interruption.
func TestRunControlLateCancelNotMisreported(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rc := newRunControl(ctx, Options{})
	cancel() // cancellation never observed by halted()
	if err := rc.err(); err != nil {
		t.Fatalf("unobserved late cancel reported %v, want nil (complete run)", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	rc2 := newRunControl(ctx2, Options{MaxCliques: 1})
	rc2.take()
	rc2.take() // exhausts the budget and latches stop
	cancel2()
	if err := rc2.err(); !errors.Is(err, ErrStopped) {
		t.Fatalf("budget stop with late cancel reported %v, want ErrStopped", err)
	}
}

func TestSessionValidatesLikeOneShot(t *testing.T) {
	g := gen.ER(100, 400, 1)
	if _, err := NewSession(g, Options{Algorithm: HBBMC, ET: 9}); err == nil {
		t.Error("invalid ET must fail at session construction")
	}
	if _, err := NewSession(g, Options{Algorithm: HBBMC, MaxCliques: -1}); err == nil {
		t.Error("negative MaxCliques must fail at session construction")
	}
	if _, err := NewSession(g, Options{Algorithm: HBBMC, Workers: -2}); err == nil {
		t.Error("Workers below UseAllCores must fail at session construction")
	}
	if _, err := NewSession(g, Options{Algorithm: BK, MaxWholeGraphVertices: 10}); err == nil {
		t.Error("oversized whole-graph run must fail at session construction")
	}
}

// TestSessionClampRecordsFallback pins the observability contract: a
// parallel request that GOMAXPROCS clamps down to one worker must say so
// in Stats.ParallelFallback, exactly like the legacy entry point does.
func TestSessionClampRecordsFallback(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	g := gen.ER(200, 800, 2)
	for _, workers := range []int{8, UseAllCores} {
		s, err := NewSession(g, Options{Algorithm: HBBMC, ET: 3, GR: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := s.Enumerate(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Workers != 1 || stats.ParallelFallback == "" {
			t.Fatalf("Workers=%d on 1 proc: Workers=%d ParallelFallback=%q, want recorded sequential fallback",
				workers, stats.Workers, stats.ParallelFallback)
		}
	}
	s, err := NewSession(g, Options{Algorithm: HBBMC, ET: 3, GR: true})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Enumerate(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParallelFallback != "" {
		t.Fatalf("sequential-by-default query recorded fallback %q", stats.ParallelFallback)
	}
}

func TestSessionQueriesMatchLegacyDrivers(t *testing.T) {
	g := gen.NoisyCliques(200, 16, 7, 400, 5)
	for _, opts := range []Options{
		Defaults(),
		{Algorithm: BKDegen},
		{Algorithm: EBBMC, ET: 3},
		{Algorithm: HBBMC, SwitchDepth: 2, ET: 3, GR: true},
	} {
		want, _, err := Count(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSession(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n, _, err := s.Count(context.Background()); err != nil || n != want {
			t.Fatalf("%v: session counted %d (err %v), legacy %d", opts.Algorithm, n, err, want)
		}
		cliques, stats, err := s.Collect(context.Background())
		if err != nil || int64(len(cliques)) != want || stats.Cliques != want {
			t.Fatalf("%v: session collected %d (stats %d, err %v), legacy %d",
				opts.Algorithm, len(cliques), stats.Cliques, err, want)
		}
	}
}

// TestVisitorScribbleKeepsCliques hands every clique to a visitor that
// overwrites the whole slice before returning: the engine must still
// report the reference clique set, so the slice it hands out is never its
// partial clique or a cached reduction clique. It runs at one and two
// workers on a graph the reduction shrinks (original ids differ from
// residual ones) and on one it leaves whole, under configurations that
// emit from the word kernels, early termination, BK_Rcd's clique sets and
// the vertex-oriented top level.
func TestVisitorScribbleKeepsCliques(t *testing.T) {
	graphs := []struct {
		name    string
		g       *graph.Graph
		reduced bool
	}{
		{"reduced", gen.NoisyCliques(400, 40, 9, 900, 11), true},
		{"whole", kernelBoundaryGraph(4), false},
	}
	configs := []Options{
		Defaults(),
		{Algorithm: HBBMC, ET: 3, GR: true, Inner: InnerRcd},
		{Algorithm: BKRef, ET: 3, GR: true},
	}
	for _, in := range graphs {
		want := referenceFor(in.g)
		for _, opts := range configs {
			s, err := NewSession(in.g, opts)
			if err != nil {
				t.Fatal(err)
			}
			if reduced := s.red.NumRemoved > 0; reduced != in.reduced {
				t.Fatalf("%s: the reduction removed %d vertices", in.name, s.red.NumRemoved)
			}
			for _, workers := range []int{1, 2} {
				var got [][]int32
				_, err := s.EnumerateWith(context.Background(), QueryOptions{Workers: workers}, func(c []int32) bool {
					got = append(got, slices.Clone(c))
					for i := range c {
						c[i] = -1
					}
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				if d := verify.Diff(got, want); d != "" {
					t.Errorf("%s/%v/%v/w%d: %s", in.name, opts.Algorithm, opts.Inner, workers, d)
				}
			}
		}
	}
}

package core

import (
	"context"
	"errors"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
)

// TestQueryOptionsOverrides pins the per-query override contract: one
// shared Session serves queries with different worker counts and clique
// budgets, and the overrides never leak back into the session.
func TestQueryOptionsOverrides(t *testing.T) {
	g := gen.NoisyCliques(200, 16, 7, 400, 5)
	s, err := NewSession(g, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	total, _, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if total < 20 {
		t.Fatalf("test graph too small: %d cliques", total)
	}

	// A budget override stops at the budget...
	n, _, err := s.CountWith(context.Background(), QueryOptions{MaxCliques: 5})
	if n != 5 || !errors.Is(err, ErrStopped) {
		t.Fatalf("MaxCliques=5 override counted %d (err %v), want 5 with ErrStopped", n, err)
	}
	// ...a worker override runs parallel with the same result...
	n, stats, err := s.CountWith(context.Background(), QueryOptions{Workers: 4})
	if err != nil || n != total {
		t.Fatalf("Workers=4 override counted %d (err %v), want %d", n, err, total)
	}
	if stats.Workers < 1 {
		t.Fatalf("Workers=4 override reported %d workers", stats.Workers)
	}
	// ...and the session's own defaults are untouched afterwards.
	n, _, err = s.Count(context.Background())
	if err != nil || n != total {
		t.Fatalf("after overrides the session counted %d (err %v), want %d", n, err, total)
	}

	// NoCliqueLimit removes a session-level budget for one query.
	limited, err2 := NewSession(g, Options{Algorithm: HBBMC, ET: 3, GR: true, MaxCliques: 3})
	if err2 != nil {
		t.Fatal(err2)
	}
	n, _, err = limited.CountWith(context.Background(), QueryOptions{MaxCliques: NoCliqueLimit})
	if err != nil || n != total {
		t.Fatalf("NoCliqueLimit query counted %d (err %v), want full %d", n, err, total)
	}
	n, _, err = limited.Count(context.Background())
	if n != 3 || !errors.Is(err, ErrStopped) {
		t.Fatalf("session budget no longer applies after override: %d (err %v)", n, err)
	}

	// Invalid overrides are rejected up front.
	if _, err := s.EnumerateWith(context.Background(), QueryOptions{Workers: -2}, nil); err == nil {
		t.Error("Workers below UseAllCores must be rejected")
	}
	if _, err := s.EnumerateWith(context.Background(), QueryOptions{MaxCliques: -2}, nil); err == nil {
		t.Error("MaxCliques below NoCliqueLimit must be rejected")
	}
}

func TestSessionMemoryEstimate(t *testing.T) {
	small := gen.ER(200, 800, 3)
	big := gen.ER(2000, 16000, 3)
	for _, opts := range []Options{
		Defaults(),
		{Algorithm: BKDegen},
		{Algorithm: BKDegree},
		{Algorithm: EBBMC, ET: 3},
	} {
		ss, err := NewSession(small, opts)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := NewSession(big, opts)
		if err != nil {
			t.Fatal(err)
		}
		es, eb := ss.MemoryEstimate(), sb.MemoryEstimate()
		if es <= 0 || eb <= 0 {
			t.Fatalf("%v: non-positive estimates %d / %d", opts.Algorithm, es, eb)
		}
		if eb <= es {
			t.Fatalf("%v: estimate did not grow with the graph (%d ≤ %d)", opts.Algorithm, eb, es)
		}
		// The residual CSR graph is always part of the estimate.
		if es < ss.res.MemoryFootprint() {
			t.Fatalf("%v: estimate %d below the residual graph's %d bytes",
				opts.Algorithm, es, ss.res.MemoryFootprint())
		}
	}

	// The edge-oriented frameworks retain the triangle incidence on top of
	// the CSR graph; their sessions must account it.
	vert, err := NewSession(small, Options{Algorithm: BKDegen})
	if err != nil {
		t.Fatal(err)
	}
	edge, err := NewSession(small, Options{Algorithm: EBBMC, ET: 3})
	if err != nil {
		t.Fatal(err)
	}
	if edge.MemoryEstimate() < vert.MemoryEstimate()+edge.inc.MemoryFootprint()/2 {
		t.Fatalf("edge session estimate %d does not reflect the %d-byte incidence (vertex session: %d)",
			edge.MemoryEstimate(), edge.inc.MemoryFootprint(), vert.MemoryEstimate())
	}
}

func TestOptionsSessionKey(t *testing.T) {
	base := Defaults()
	same := base
	same.Workers = 8      // per-run knob: must not change the key
	same.MaxCliques = 100 // per-run knob
	if base.SessionKey() != same.SessionKey() {
		t.Fatalf("per-run knobs changed the session key:\n%s\n%s", base.SessionKey(), same.SessionKey())
	}

	// Normalized defaults collide with their explicit spellings.
	explicit := base
	explicit.SwitchDepth = 1
	if base.SessionKey() != explicit.SessionKey() {
		t.Fatalf("SwitchDepth 0 and 1 must share a key:\n%s\n%s", base.SessionKey(), explicit.SessionKey())
	}

	for name, change := range map[string]func(*Options){
		"Algorithm":   func(o *Options) { o.Algorithm = BKDegen },
		"ET":          func(o *Options) { o.ET = 0 },
		"GR":          func(o *Options) { o.GR = false },
		"SwitchDepth": func(o *Options) { o.SwitchDepth = 2 },
		"EdgeOrder":   func(o *Options) { o.EdgeOrder = EdgeOrderMinDegree },
		"Inner":       func(o *Options) { o.Inner = InnerRcd },
	} {
		o := base
		change(&o)
		if o.SessionKey() == base.SessionKey() {
			t.Errorf("changing %s did not change the session key %q", name, base.SessionKey())
		}
	}
}

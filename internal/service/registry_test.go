package service

import (
	"path/filepath"
	"testing"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/obs"
)

// writeGraph saves a generated graph as a .hbg snapshot the registry can
// load by name.
func writeGraph(t *testing.T, dir, name string, g *hbbmc.Graph) string {
	t.Helper()
	path := filepath.Join(dir, name+".hbg")
	if err := g.SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegistrySessionReuseAndKeying(t *testing.T) {
	dir := t.TempDir()
	m := newMetrics(obs.NewRegistry())
	r := newRegistry(1<<30, m, nil)
	g := hbbmc.GenerateER(300, 1500, 1)
	if _, err := r.Register("er", writeGraph(t, dir, "er", g), "auto"); err != nil {
		t.Fatal(err)
	}

	opts := hbbmc.DefaultOptions()
	s1, hit, err := r.Session("er", opts)
	if err != nil || hit {
		t.Fatalf("first acquisition: hit=%v err=%v, want cold miss", hit, err)
	}
	// Per-run knobs must not fragment the cache.
	warm := opts
	warm.Workers = 8
	warm.MaxCliques = 10
	s2, hit, err := r.Session("er", warm)
	if err != nil || !hit || s2 != s1 {
		t.Fatalf("same-key acquisition: hit=%v same=%v err=%v, want warm hit on the same session", hit, s2 == s1, err)
	}
	// Algorithm-relevant changes build a distinct session.
	other := opts
	other.Algorithm = hbbmc.BKDegen
	s3, hit, err := r.Session("er", other)
	if err != nil || hit || s3 == s1 {
		t.Fatalf("different-key acquisition: hit=%v same=%v err=%v, want a fresh session", hit, s3 == s1, err)
	}
	if got := m.sessionHits.Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
	if got := m.sessionMisses.Value(); got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
	if r.SessionBytes() <= 0 {
		t.Fatal("no session bytes accounted")
	}

	if _, _, err := r.Session("nope", opts); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	dir := t.TempDir()
	m := newMetrics(obs.NewRegistry())
	g := hbbmc.GenerateER(400, 2000, 2)
	path := writeGraph(t, dir, "er", g)

	// Budget for roughly one session: every new options key evicts the
	// previous session.
	probe, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := newRegistry(probe.MemoryEstimate()*3/2, m, nil)
	if _, err := r.Register("er", path, "auto"); err != nil {
		t.Fatal(err)
	}

	keys := []hbbmc.Options{
		hbbmc.DefaultOptions(),
		{Algorithm: hbbmc.BKDegen},
		{Algorithm: hbbmc.EBBMC, ET: 3},
		{Algorithm: hbbmc.HBBMC, ET: 2, GR: true},
	}
	for _, opts := range keys {
		if _, _, err := r.Session("er", opts); err != nil {
			t.Fatal(err)
		}
		if used, budget := r.SessionBytes(), r.budget; used > budget*2 {
			t.Fatalf("session bytes %d far beyond budget %d", used, budget)
		}
	}
	if m.sessionEvictions.Value() == 0 {
		t.Fatal("no evictions despite exceeding the budget")
	}
	// The oldest key must have been evicted: re-acquiring it is a miss.
	before := m.sessionMisses.Value()
	if _, hit, err := r.Session("er", keys[0]); err != nil || hit {
		t.Fatalf("evicted key reported hit=%v err=%v", hit, err)
	}
	if m.sessionMisses.Value() != before+1 {
		t.Fatal("re-acquiring the evicted key did not count as a miss")
	}

	// Removing the dataset drops its sessions and their bytes.
	if !r.Remove("er") {
		t.Fatal("Remove returned false")
	}
	if got := r.SessionBytes(); got != 0 {
		t.Fatalf("bytes after removal = %d, want 0", got)
	}
}

// TestRegistryEvictSkipsJustBuiltAtTail pins the eviction walk: when the
// just-built entry has sunk to the LRU tail (its build was slow while
// another key took hits), eviction must skip past it and still drop older
// entries, not stop at the tail and leave the budget exceeded forever.
func TestRegistryEvictSkipsJustBuiltAtTail(t *testing.T) {
	dir := t.TempDir()
	m := newMetrics(obs.NewRegistry())
	r := newRegistry(1<<30, m, nil)
	g := hbbmc.GenerateER(300, 1200, 5)
	if _, err := r.Register("er", writeGraph(t, dir, "er", g), "auto"); err != nil {
		t.Fatal(err)
	}
	optsA, optsB := hbbmc.DefaultOptions(), hbbmc.Options{Algorithm: hbbmc.BKDegen}
	if _, _, err := r.Session("er", optsA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Session("er", optsB); err != nil {
		t.Fatal(err)
	}
	keyA := "er\x00" + optsA.SessionKey()
	r.mu.Lock()
	eA := r.sessions[keyA]
	r.lru.MoveToBack(eA.elem) // the race's end state: just-built A at the tail
	r.budget = 1              // force over-budget
	r.evictLocked(eA)
	_, aKept := r.sessions[keyA]
	nLeft := len(r.sessions)
	r.mu.Unlock()
	if !aKept {
		t.Fatal("eviction dropped the just-built entry")
	}
	if nLeft != 1 {
		t.Fatalf("%d sessions left, want only the just-built one", nLeft)
	}
	if m.sessionEvictions.Value() != 1 {
		t.Fatalf("evictions = %d, want 1", m.sessionEvictions.Value())
	}
}

// TestRegistryOversizedSessionStillServes pins the budget edge case: one
// session larger than the entire budget is cached anyway (evicting all
// others) rather than thrashing.
func TestRegistryOversizedSessionStillServes(t *testing.T) {
	dir := t.TempDir()
	m := newMetrics(obs.NewRegistry())
	r := newRegistry(1, m, nil) // 1 byte: everything is oversized
	g := hbbmc.GenerateER(200, 800, 3)
	if _, err := r.Register("er", writeGraph(t, dir, "er", g), "auto"); err != nil {
		t.Fatal(err)
	}
	s1, _, err := r.Session("er", hbbmc.DefaultOptions())
	if err != nil || s1 == nil {
		t.Fatalf("oversized session not served: %v", err)
	}
	s2, hit, err := r.Session("er", hbbmc.DefaultOptions())
	if err != nil || !hit || s2 != s1 {
		t.Fatalf("oversized session not reusable: hit=%v err=%v", hit, err)
	}
}

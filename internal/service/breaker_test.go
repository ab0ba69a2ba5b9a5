package service

import (
	"testing"
	"time"

	"github.com/graphmining/hbbmc/internal/obs"
)

func TestBreakerTripAndRecover(t *testing.T) {
	bs := newBreakerSet(3, 40*time.Millisecond, newMetrics(obs.NewRegistry()))
	const peer = "http://peer-a"

	// Closed: everything is allowed; failures below the threshold keep it so.
	for i := 0; i < 2; i++ {
		if !bs.allow(peer) {
			t.Fatalf("closed breaker denied dispatch after %d failures", i)
		}
		bs.failure(peer)
	}
	if st := bs.states()[peer]; st != breakerClosed {
		t.Fatalf("state after 2/3 failures = %s, want closed", st)
	}

	// The threshold-th consecutive failure trips it open.
	bs.failure(peer)
	if st := bs.states()[peer]; st != breakerOpen {
		t.Fatalf("state after 3/3 failures = %s, want open", st)
	}
	if bs.allow(peer) {
		t.Fatal("open breaker allowed a dispatch inside the cooldown")
	}
	if n := bs.openCount(); n != 1 {
		t.Fatalf("openCount = %d, want 1", n)
	}

	// After the cooldown exactly one probe goes through.
	time.Sleep(50 * time.Millisecond)
	if !bs.allow(peer) {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	if st := bs.states()[peer]; st != breakerHalfOpen {
		t.Fatalf("state during probe = %s, want half_open", st)
	}
	if bs.allow(peer) {
		t.Fatal("second dispatch allowed while the probe is in flight")
	}

	// A failed probe re-opens; cooldown restarts.
	bs.failure(peer)
	if st := bs.states()[peer]; st != breakerOpen {
		t.Fatalf("state after failed probe = %s, want open", st)
	}
	if bs.allow(peer) {
		t.Fatal("re-opened breaker allowed a dispatch")
	}

	// A successful probe closes it fully.
	time.Sleep(50 * time.Millisecond)
	if !bs.allow(peer) {
		t.Fatal("second probe refused")
	}
	bs.success(peer)
	if st := bs.states()[peer]; st != breakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", st)
	}
	for i := 0; i < 5; i++ {
		if !bs.allow(peer) {
			t.Fatal("closed breaker denied dispatch")
		}
	}
	if n := bs.openCount(); n != 0 {
		t.Fatalf("openCount after recovery = %d, want 0", n)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	bs := newBreakerSet(3, time.Minute, newMetrics(obs.NewRegistry()))
	const peer = "http://peer-b"
	// Interleaved successes keep the consecutive-failure count from ever
	// reaching the threshold.
	for i := 0; i < 10; i++ {
		bs.failure(peer)
		bs.failure(peer)
		bs.success(peer)
	}
	if st := bs.states()[peer]; st != breakerClosed {
		t.Fatalf("state = %s, want closed", st)
	}
	if !bs.allow(peer) {
		t.Fatal("closed breaker denied dispatch")
	}
}

func TestBreakerTracksPeersIndependently(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	bs := newBreakerSet(1, time.Minute, m)
	bs.failure("http://dead")
	bs.success("http://live")
	states := bs.states()
	if states["http://dead"] != breakerOpen || states["http://live"] != breakerClosed {
		t.Fatalf("states = %v", states)
	}
	if bs.allow("http://dead") {
		t.Fatal("dead peer allowed")
	}
	if !bs.allow("http://live") {
		t.Fatal("live peer denied")
	}
	if got := m.peerBreakerTrips.Value(); got != 1 {
		t.Fatalf("peer_breaker_trips = %d, want 1", got)
	}
	if got := m.peerFailures.Value(); got != 1 {
		t.Fatalf("peer_failures = %d, want 1", got)
	}
}

package service

import (
	"sync"
	"time"
)

// This file implements the coordinator's per-peer circuit breakers. A peer
// that keeps failing shard dispatches trips its breaker open and is skipped
// by peer rotation for a cooldown, instead of rotating back in and eating
// the retry budget of every shard that lands on it. After the cooldown one
// probe dispatch is allowed through (half-open); its outcome closes the
// breaker or re-opens it for another cooldown. The states are surfaced in
// /v1/info ("peer_breakers") and the mced_peer_* metrics.

// breaker states. The zero value is closed (healthy).
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half_open"
)

// peerBreaker is one peer's failure tracker.
type peerBreaker struct {
	state    string
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
}

// breakerSet tracks one breaker per peer URL. All methods are safe for
// concurrent use by the shard goroutines.
type breakerSet struct {
	threshold int
	cooldown  time.Duration
	m         *metrics

	mu sync.Mutex
	//hbbmc:guardedby mu
	peers map[string]*peerBreaker
}

func newBreakerSet(threshold int, cooldown time.Duration, m *metrics) *breakerSet {
	return &breakerSet{
		threshold: threshold,
		cooldown:  cooldown,
		m:         m,
		peers:     make(map[string]*peerBreaker),
	}
}

func (b *breakerSet) peerLocked(peer string) *peerBreaker {
	p := b.peers[peer]
	if p == nil {
		p = &peerBreaker{state: breakerClosed}
		b.peers[peer] = p
	}
	return p
}

// allow reports whether a dispatch to peer may proceed. An open breaker
// whose cooldown has elapsed admits exactly one probe (half-open); further
// dispatches stay blocked until the probe's outcome is recorded.
func (b *breakerSet) allow(peer string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peerLocked(peer)
	switch p.state {
	case breakerOpen:
		if time.Since(p.openedAt) < b.cooldown {
			return false
		}
		p.state = breakerHalfOpen
		p.probing = true
		return true
	case breakerHalfOpen:
		if p.probing {
			return false
		}
		p.probing = true
		return true
	}
	return true
}

// success records a successful dispatch: the breaker closes and the
// consecutive-failure count resets.
func (b *breakerSet) success(peer string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peerLocked(peer)
	p.state = breakerClosed
	p.fails = 0
	p.probing = false
}

// failure records a failed dispatch. A closed breaker trips after threshold
// consecutive failures; a half-open probe failure re-opens immediately.
func (b *breakerSet) failure(peer string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m.peerFailures.Add(1)
	p := b.peerLocked(peer)
	switch p.state {
	case breakerHalfOpen:
		b.tripLocked(p)
	default:
		p.fails++
		if p.fails >= b.threshold {
			b.tripLocked(p)
		}
	}
}

func (b *breakerSet) tripLocked(p *peerBreaker) {
	p.state = breakerOpen
	p.openedAt = time.Now()
	p.fails = 0
	p.probing = false
	b.m.peerBreakerTrips.Add(1)
}

// states snapshots every tracked peer's breaker state for /v1/info.
func (b *breakerSet) states() map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.peers) == 0 {
		return nil
	}
	out := make(map[string]string, len(b.peers))
	for peer, p := range b.peers {
		out[peer] = p.state
	}
	return out
}

// openCount counts the currently open breakers (the mced_peer_breaker_open
// gauge); a server without peers has no breaker set and none open.
func (b *breakerSet) openCount() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, p := range b.peers {
		if p.state == breakerOpen {
			n++
		}
	}
	return n
}

package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/verify"
)

// hookCall is one recorded BranchDone invocation.
type hookCall struct {
	lo, hi    int
	cliques   int64
	max       int
	delivered int // visitor calls completed before the hook fired
}

// runHooked runs one hooked, ordered enumeration and returns the delivered
// cliques (in delivery order) and the recorded hook calls (in firing order).
func runHooked(t *testing.T, s *Session, workers int) ([][]int32, []hookCall, *Stats) {
	t.Helper()
	var got [][]int32
	var calls []hookCall
	stats, err := s.EnumerateWith(context.Background(), QueryOptions{
		Workers: workers,
		BranchDone: func(lo, hi int, cliques int64, max int) {
			calls = append(calls, hookCall{lo: lo, hi: hi, cliques: cliques, max: max, delivered: len(got)})
		},
		OrderedEmit: true,
	}, func(c []int32) bool {
		got = append(got, append([]int32(nil), c...))
		return true
	})
	if err != nil {
		t.Fatalf("hooked run w=%d: %v", workers, err)
	}
	return got, calls, stats
}

// TestBranchDoneExactlyOnceResume is the invariant the crash-recovery layer
// is built on: at the moment BranchDone reports the unit ending at W, the
// visitor has received exactly the cliques of residue + branches [0, W) —
// so a run resumed with BranchLo=W delivers precisely the complement, and
// prefix + resume is the full clique multiset with no duplicates.
func TestBranchDoneExactlyOnceResume(t *testing.T) {
	withProcs(t, 4)
	g := gen.NoisyCliques(48, 6, 4, 90, 7)
	for _, algo := range []Algorithm{HBBMC, BKDegen} {
		// A small fixed chunk keeps many resume points on the parallel path.
		s, err := NewSession(g, Options{Algorithm: algo, ET: 3, GR: true, ParallelChunkSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		want := referenceFor(g)
		branches := s.NumTopBranches()
		for _, workers := range []int{1, 4} {
			got, calls, stats := runHooked(t, s, workers)
			label := fmt.Sprintf("%v/w%d", algo, workers)
			if d := verify.Diff(got, want); d != "" {
				t.Fatalf("%s full hooked run: %s", label, d)
			}
			if len(calls) == 0 || calls[0].lo != 0 || calls[0].hi != 0 {
				t.Fatalf("%s: first hook call %+v is not the residue call", label, calls[0])
			}
			// Intervals must be contiguous and ascending from 0, and the
			// deltas must sum to the run's clique count.
			next := 0
			var sum int64
			for i, c := range calls {
				if i > 0 && (c.lo != next || c.hi <= c.lo) {
					t.Fatalf("%s: hook call %d is [%d,%d), want lo=%d", label, i, c.lo, c.hi, next)
				}
				next = c.hi
				sum += c.cliques
			}
			if next != branches {
				t.Fatalf("%s: hooks covered [0,%d) of %d branches", label, next, branches)
			}
			if sum != stats.Cliques || int64(len(got)) != stats.Cliques {
				t.Fatalf("%s: hook deltas sum %d, delivered %d, stats %d", label, sum, len(got), stats.Cliques)
			}
			// Every hook call with hi >= 1 is a valid resume point: what was
			// delivered before it, plus a run over [hi, branches), is the
			// full set. (The residue call's W=0 is not one — resuming with
			// BranchLo=0 re-emits the residue, which is why checkpoints are
			// only taken at W >= 1.)
			for _, ci := range []int{1, len(calls) / 2, len(calls) - 1} {
				c := calls[ci]
				resumed := collectRange(t, s, c.hi, branches, workers)
				combined := append(append([][]int32{}, got[:c.delivered]...), resumed...)
				if d := verify.Diff(combined, want); d != "" {
					t.Fatalf("%s resume at W=%d (delivered %d): %s", label, c.hi, c.delivered, d)
				}
			}
		}
	}
}

// TestBranchDoneCountWatermark covers the unordered counting path: hook
// calls arrive out of order from parallel workers, the consumer merges them
// into a contiguous-prefix watermark, and a count resumed from any such
// watermark plus the prefix's clique sum reproduces the full count.
func TestBranchDoneCountWatermark(t *testing.T) {
	withProcs(t, 4)
	g := gen.NoisyCliques(48, 6, 4, 90, 8)
	s, err := NewSession(g, Options{Algorithm: HBBMC, ET: 3, GR: true, ParallelChunkSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	branches := s.NumTopBranches()
	var calls []hookCall
	total, _, err := s.CountWith(context.Background(), QueryOptions{
		Workers: 4,
		BranchDone: func(lo, hi int, cliques int64, max int) {
			calls = append(calls, hookCall{lo: lo, hi: hi, cliques: cliques, max: max})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The hook is documented single-goroutine-at-a-time but unordered here;
	// sort by lo and check the intervals tile [0, branches) exactly.
	sort.Slice(calls, func(i, j int) bool {
		if calls[i].lo != calls[j].lo {
			return calls[i].lo < calls[j].lo
		}
		return calls[i].hi < calls[j].hi
	})
	if calls[0].lo != 0 || calls[0].hi != 0 {
		t.Fatalf("missing residue call: %+v", calls[0])
	}
	next := 0
	var sum int64
	for _, c := range calls[1:] {
		if c.lo != next {
			t.Fatalf("intervals do not tile: [%d,%d) after %d", c.lo, c.hi, next)
		}
		next = c.hi
		sum += c.cliques
	}
	if next != branches {
		t.Fatalf("intervals cover [0,%d) of %d", next, branches)
	}
	if sum+calls[0].cliques != total {
		t.Fatalf("deltas sum %d + residue %d != total %d", sum, calls[0].cliques, total)
	}
	// Resume from a few mid-run watermarks: prefix sum + ranged recount.
	for _, cut := range []int{1, len(calls) / 2, len(calls) - 1} {
		w := calls[cut].hi
		prefix := calls[0].cliques
		for _, c := range calls[1 : cut+1] {
			prefix += c.cliques
		}
		rest, _, err := s.CountWith(context.Background(), QueryOptions{
			Workers: 4, BranchLo: w, BranchHi: branches,
		})
		if err != nil && w < branches {
			t.Fatalf("resume count from %d: %v", w, err)
		}
		if prefix+rest != total {
			t.Fatalf("watermark %d: prefix %d + rest %d != total %d", w, prefix, rest, total)
		}
	}
}

// TestBranchDoneSkippedWhenStopped: a visitor refusal stops the run; no
// hook call may claim an interval whose delivery was cut short, so the
// claimed prefix is always resumable without loss.
func TestBranchDoneSkippedWhenStopped(t *testing.T) {
	withProcs(t, 4)
	g := gen.NoisyCliques(48, 6, 4, 90, 9)
	s, err := NewSession(g, Options{Algorithm: HBBMC, ET: 3, GR: true, ParallelChunkSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := referenceFor(g)
	branches := s.NumTopBranches()
	for _, workers := range []int{1, 4} {
		var got [][]int32
		var calls []hookCall
		stop := len(want) / 2
		_, err := s.EnumerateWith(context.Background(), QueryOptions{
			Workers: workers,
			BranchDone: func(lo, hi int, cliques int64, max int) {
				calls = append(calls, hookCall{lo: lo, hi: hi, cliques: cliques, delivered: len(got)})
			},
		}, func(c []int32) bool {
			got = append(got, append([]int32(nil), c...))
			return len(got) < stop
		})
		if err == nil {
			t.Fatalf("w=%d: stopped run returned nil error", workers)
		}
		if len(calls) == 0 {
			continue // stopped before the residue hook: nothing claimed
		}
		last := calls[len(calls)-1]
		resumed := collectRange(t, s, last.hi, branches, workers)
		combined := append(append([][]int32{}, got[:last.delivered]...), resumed...)
		if d := verify.Diff(combined, want); d != "" {
			t.Fatalf("w=%d: claimed prefix at W=%d not resumable: %s", workers, last.hi, d)
		}
	}
}

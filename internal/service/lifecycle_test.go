package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/service"
)

// waitSettled polls the JSON metrics until mced_jobs_queued is zero,
// mced_jobs_running equals running and the terminal-state counters
// (mced_jobs_done, _stopped, _failed) equal want, a missing state counting
// as zero. Terminal transitions can land just after the response that
// revealed them, hence the poll.
func waitSettled(t *testing.T, e *testEnv, running int64, want map[service.JobState]int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := map[service.JobState]int64{
			service.StateDone:    e.metric("jobs_done"),
			service.StateStopped: e.metric("jobs_stopped"),
			service.StateFailed:  e.metric("jobs_failed"),
		}
		queued, run := e.metric("jobs_queued"), e.metric("jobs_running")
		settled := queued == 0 && run == running
		for _, st := range []service.JobState{service.StateDone, service.StateStopped, service.StateFailed} {
			settled = settled && got[st] == want[st]
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs_queued=%d jobs_running=%d (want 0, %d), terminal counters %v, want %v",
				queued, run, running, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startBlocker fills a one-slot server with an enumerate job that blocks on
// its one-clique buffer (nobody streams it) and returns its ID.
func startBlocker(t *testing.T, e *testEnv) string {
	t.Helper()
	return e.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "buffer": 1}).ID
}

// cancelBlocker cancels the blocker and waits for it to stop.
func cancelBlocker(t *testing.T, e *testEnv, id string) {
	t.Helper()
	e.do("DELETE", "/v1/jobs/"+id, nil)
	if v := e.waitJob(id); v.State != service.StateStopped {
		t.Fatalf("blocker ended %s", v.State)
	}
}

// TestTerminalPathsSettleGauges drives every way a job can end — a 429, a
// cancel while queued, a client disconnect during admission, a deadline, a
// clique budget, a completed run and a cancelled journal-restored stream —
// and checks that each leaves the queued and running gauges at zero and
// raises exactly its own state's counter by one.
func TestTerminalPathsSettleGauges(t *testing.T) {
	g := hbbmc.GenerateER(1500, 40000, 31)
	stopped := map[service.JobState]int64{service.StateStopped: 1}

	t.Run("rejected", func(t *testing.T) {
		e := newTestEnv(t, service.Config{WorkerSlots: 1, QueueWait: 50 * time.Millisecond})
		e.registerGraph("er", g)
		blocker := startBlocker(t, e)
		resp, data := e.do("POST", "/v1/jobs", map[string]any{"dataset": "er", "mode": "count"})
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("saturated POST = %d (Retry-After %q) %s, want 429", resp.StatusCode, resp.Header.Get("Retry-After"), data)
		}
		waitSettled(t, e, 1, map[service.JobState]int64{service.StateFailed: 1})
		cancelBlocker(t, e, blocker)
		waitSettled(t, e, 0, map[service.JobState]int64{service.StateFailed: 1, service.StateStopped: 1})
	})

	t.Run("cancelled while queued", func(t *testing.T) {
		e := newTestEnv(t, service.Config{WorkerSlots: 1, QueueWait: 30 * time.Second})
		e.registerGraph("er", g)
		blocker := startBlocker(t, e)
		posted := make(chan service.JobView, 1)
		go func() {
			var v service.JobView
			resp, err := e.ts.Client().Post(e.ts.URL+"/v1/jobs", "application/json",
				strings.NewReader(`{"dataset":"er","mode":"count"}`))
			if err == nil {
				_ = json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
			}
			posted <- v
		}()
		waitQueued(t, e, "count")
		// The queued job is the fresh server's second.
		e.do("DELETE", "/v1/jobs/j000002", nil)
		if v := <-posted; v.ID != "j000002" || v.State != service.StateStopped || v.StopReason != "cancelled" {
			t.Fatalf("cancelled-while-queued POST returned %q %s/%q", v.ID, v.State, v.StopReason)
		}
		waitSettled(t, e, 1, stopped)
		cancelBlocker(t, e, blocker)
		waitSettled(t, e, 0, map[service.JobState]int64{service.StateStopped: 2})
	})

	t.Run("client gone during admission", func(t *testing.T) {
		e := newTestEnv(t, service.Config{WorkerSlots: 1, QueueWait: 30 * time.Second})
		e.registerGraph("er", g)
		blocker := startBlocker(t, e)
		ctx, cancel := context.WithCancel(context.Background())
		posted := make(chan error, 1)
		go func() {
			req, err := http.NewRequestWithContext(ctx, "POST", e.ts.URL+"/v1/jobs",
				strings.NewReader(`{"dataset":"er","mode":"count"}`))
			if err == nil {
				var resp *http.Response
				if resp, err = e.ts.Client().Do(req); err == nil {
					resp.Body.Close()
				}
			}
			posted <- err
		}()
		waitQueued(t, e, "count")
		cancel()
		if err := <-posted; err == nil {
			t.Fatal("POST with a cancelled context returned a response")
		}
		waitSettled(t, e, 1, map[service.JobState]int64{service.StateFailed: 1})
		if v := e.waitJob("j000002"); v.Error != "client disconnected during admission" {
			t.Fatalf("disconnected job error %q", v.Error)
		}
		cancelBlocker(t, e, blocker)
		waitSettled(t, e, 0, map[service.JobState]int64{service.StateFailed: 1, service.StateStopped: 1})
	})

	for _, c := range []struct {
		name   string
		req    map[string]any
		state  service.JobState
		reason string
	}{
		{"deadline", map[string]any{"timeout": "1ns"}, service.StateStopped, "deadline"},
		{"clique budget", map[string]any{"max_cliques": 10}, service.StateStopped, "max_cliques"},
		{"completed", map[string]any{}, service.StateDone, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newTestEnv(t, service.Config{})
			e.registerGraph("er", g)
			c.req["dataset"], c.req["mode"] = "er", "count"
			if v := e.waitJob(e.startJob(c.req).ID); v.State != c.state || v.StopReason != c.reason {
				t.Fatalf("job ended %s/%q, want %s/%q", v.State, v.StopReason, c.state, c.reason)
			}
			waitSettled(t, e, 0, map[service.JobState]int64{c.state: 1})
		})
	}

	t.Run("restored stream cancelled unclaimed", func(t *testing.T) {
		gpath := saveGraph(t, hbbmc.GenerateER(300, 1800, 32))
		cfg := service.Config{JournalDir: t.TempDir()}
		a := openJournaled(t, cfg)
		a.waitReady()
		a.registerPath("er", gpath)
		v := a.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "buffer": 1})
		waitState(t, a.testEnv, v.ID, service.StateRunning)
		a.crash()

		b := openJournaled(t, cfg)
		defer b.stop()
		b.waitReady()
		if n := b.metric("jobs_queued"); n != 1 {
			t.Fatalf("restored jobs_queued = %d, want 1", n)
		}
		b.do("DELETE", "/v1/jobs/"+v.ID, nil)
		if got := b.waitJob(v.ID); got.State != service.StateStopped || got.StopReason != "cancelled" {
			t.Fatalf("restored job ended %s/%q, want stopped/cancelled", got.State, got.StopReason)
		}
		waitSettled(t, b.testEnv, 0, stopped)
	})
}

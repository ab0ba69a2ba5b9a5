package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/dataset"
	"github.com/graphmining/hbbmc/internal/service"
)

// withTestProcs raises GOMAXPROCS for tests whose slot accounting depends
// on multi-worker jobs: the server clamps requested workers to GOMAXPROCS,
// so on a 1-core CI machine a 2-worker job would silently hold 1 slot.
func withTestProcs(t *testing.T, workers int) {
	t.Helper()
	if old := runtime.GOMAXPROCS(0); old < workers {
		runtime.GOMAXPROCS(workers)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// testEnv is one server over httptest with helpers for the JSON API.
type testEnv struct {
	t  *testing.T
	ts *httptest.Server
}

func newTestEnv(t *testing.T, cfg service.Config) *testEnv {
	t.Helper()
	srv := service.New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
		ts.Close()
	})
	return &testEnv{t: t, ts: ts}
}

func (e *testEnv) do(method, path string, body any) (*http.Response, []byte) {
	e.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			e.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		e.t.Fatal(err)
	}
	return resp, data
}

func (e *testEnv) registerGraph(name string, g *hbbmc.Graph) {
	e.t.Helper()
	path := filepath.Join(e.t.TempDir(), name+".hbg")
	if err := g.SaveBinaryFile(path); err != nil {
		e.t.Fatal(err)
	}
	resp, data := e.do("POST", "/v1/datasets", map[string]string{"name": name, "path": path})
	if resp.StatusCode != http.StatusCreated {
		e.t.Fatalf("register %s: %d %s", name, resp.StatusCode, data)
	}
}

func (e *testEnv) startJob(req map[string]any) service.JobView {
	e.t.Helper()
	resp, data := e.do("POST", "/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		e.t.Fatalf("start job %v: %d %s", req, resp.StatusCode, data)
	}
	var v service.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		e.t.Fatal(err)
	}
	return v
}

func (e *testEnv) waitJob(id string) service.JobView {
	e.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, data := e.do("GET", "/v1/jobs/"+id+"?wait=2s", nil)
		if resp.StatusCode != http.StatusOK {
			e.t.Fatalf("get job %s: %d %s", id, resp.StatusCode, data)
		}
		var v service.JobView
		if err := json.Unmarshal(data, &v); err != nil {
			e.t.Fatal(err)
		}
		switch v.State {
		case service.StateDone, service.StateStopped, service.StateFailed:
			return v
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("job %s stuck in state %s", id, v.State)
		}
	}
}

func (e *testEnv) metric(name string) int64 {
	e.t.Helper()
	resp, data := e.do("GET", "/metrics?format=json", nil)
	if resp.StatusCode != http.StatusOK {
		e.t.Fatalf("/metrics: %d %s", resp.StatusCode, data)
	}
	var all map[string]int64
	if err := json.Unmarshal(data, &all); err != nil {
		e.t.Fatalf("metrics not JSON: %v\n%s", err, data)
	}
	return all["mced_"+name]
}

func TestDatasetCRUD(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(100, 400, 1)
	e.registerGraph("er", g)

	// Duplicate name conflicts.
	path := filepath.Join(t.TempDir(), "er2.hbg")
	if err := g.SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	resp, _ := e.do("POST", "/v1/datasets", map[string]string{"name": "er", "path": path})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register = %d, want 409", resp.StatusCode)
	}
	// Bad path rejected.
	resp, _ = e.do("POST", "/v1/datasets", map[string]string{"name": "ghost", "path": path + ".missing"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing file register = %d, want 400", resp.StatusCode)
	}
	// Bad name rejected.
	resp, _ = e.do("POST", "/v1/datasets", map[string]string{"name": "../evil", "path": path})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name register = %d, want 400", resp.StatusCode)
	}

	resp, data := e.do("GET", "/v1/datasets", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"er"`) {
		t.Fatalf("list datasets: %d %s", resp.StatusCode, data)
	}
	resp, _ = e.do("GET", "/v1/datasets/er", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get dataset = %d", resp.StatusCode)
	}
	resp, _ = e.do("DELETE", "/v1/datasets/er", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete dataset = %d", resp.StatusCode)
	}
	resp, _ = e.do("GET", "/v1/datasets/er", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get deleted dataset = %d, want 404", resp.StatusCode)
	}
	if e.metric("datasets") != 0 {
		t.Fatal("datasets gauge not back to 0")
	}
}

func TestCountJobAndWarmReuse(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(400, 2400, 7)
	e.registerGraph("er", g)

	want := countCliques(t, g)

	v := e.startJob(map[string]any{"dataset": "er", "mode": "count"})
	if v.SessionCached {
		t.Error("first job on a dataset reported a warm session")
	}
	v = e.waitJob(v.ID)
	if v.State != service.StateDone || v.Stats == nil || v.Stats.Cliques != want {
		t.Fatalf("count job: state=%s stats=%+v, want done with %d cliques", v.State, v.Stats, want)
	}
	if v.Stats.OrderingTime != 0 {
		t.Fatalf("session query reported OrderingTime %v, want 0", v.Stats.OrderingTime)
	}

	// Second job on the warm dataset: session reuse, zero ordering time.
	v2 := e.startJob(map[string]any{"dataset": "er", "mode": "count", "workers": 2})
	if !v2.SessionCached {
		t.Fatal("second job did not reuse the warm session")
	}
	v2 = e.waitJob(v2.ID)
	if v2.State != service.StateDone || v2.Stats.Cliques != want {
		t.Fatalf("warm count: state=%s cliques=%d, want done/%d", v2.State, v2.Stats.Cliques, want)
	}
	if v2.Stats.OrderingTime != 0 {
		t.Fatalf("warm query reported OrderingTime %v, want 0", v2.Stats.OrderingTime)
	}
	if hits := e.metric("session_cache_hits"); hits < 1 {
		t.Fatalf("session_cache_hits = %d, want ≥ 1", hits)
	}
	if done := e.metric("jobs_done"); done != 2 {
		t.Fatalf("jobs_done = %d, want 2", done)
	}
}

// streamLines reads a job's NDJSON stream, returning the clique lines and
// the trailer.
func streamJob(t *testing.T, e *testEnv, id string) (cliques [][]int32, trailer map[string]any) {
	t.Helper()
	resp, err := e.ts.Client().Get(e.ts.URL + "/v1/jobs/" + id + "/cliques")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			C    []int32 `json:"c"`
			Done bool    `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			trailer = map[string]any{}
			if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
		} else {
			cliques = append(cliques, line.C)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cliques, trailer
}

func TestEnumerateStreamDeliversAllCliques(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(300, 1800, 3)
	e.registerGraph("er", g)
	want := countCliques(t, g)

	v := e.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "workers": 2})
	cliques, trailer := streamJob(t, e, v.ID)
	if int64(len(cliques)) != want {
		t.Fatalf("streamed %d cliques, want %d", len(cliques), want)
	}
	if trailer == nil || trailer["state"] != string(service.StateDone) {
		t.Fatalf("trailer = %v, want done", trailer)
	}
	if got := int64(trailer["cliques"].(float64)); got != want {
		t.Fatalf("trailer cliques = %d, want %d", got, want)
	}
	for _, c := range cliques {
		if !g.IsClique(c) {
			t.Fatalf("streamed non-clique %v", c)
		}
	}
	if emitted := e.metric("cliques_emitted"); emitted < want {
		t.Fatalf("cliques_emitted = %d, want ≥ %d", emitted, want)
	}

	// A second streaming client on the same job conflicts.
	resp, _ := e.do("GET", "/v1/jobs/"+v.ID+"/cliques", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second stream = %d, want 409", resp.StatusCode)
	}
}

// TestEnumerateStreamBytesMatchEncoder pins the stream's wire format: on
// every stand-in the serving benchmark registers, a one-worker enumerate
// job's body before the trailer is byte for byte the json.Encoder lines of
// the same session's one-worker clique sequence.
func TestEnumerateStreamBytesMatchEncoder(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	for _, name := range []string{"NA", "FB", "WE", "WK", "ST", "DB", "YO"} {
		spec, ok := dataset.ByName(name)
		if !ok {
			t.Fatalf("no stand-in %s", name)
		}
		g := spec.Build()
		e.registerGraph(name, g)
		sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		if _, err := sess.EnumerateWith(context.Background(), hbbmc.QueryOptions{Workers: 1}, func(c []int32) bool {
			return enc.Encode(struct {
				C []int32 `json:"c"`
			}{c}) == nil
		}); err != nil {
			t.Fatal(err)
		}

		v := e.startJob(map[string]any{"dataset": name, "type": "enumerate", "workers": 1})
		resp, body := e.do("GET", "/v1/jobs/"+v.ID+"/cliques", nil)
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s: stream %d, %d bytes", name, resp.StatusCode, len(body))
		}
		cut := bytes.LastIndexByte(body[:len(body)-1], '\n') + 1
		if got := body[:cut]; !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: streamed %d bytes before the trailer, json.Encoder wrote %d; they differ", name, len(got), want.Len())
		}
		if !bytes.HasPrefix(body[cut:], []byte(`{"done":true,"state":"done"`)) {
			t.Fatalf("%s: trailer %s", name, body[cut:])
		}
	}
}

func TestEnumerateMaxCliquesExactDelivery(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(300, 1800, 4)
	e.registerGraph("er", g)
	const limit = 25
	for _, workers := range []int{1, 4} {
		v := e.startJob(map[string]any{
			"dataset": "er", "mode": "enumerate", "workers": workers, "max_cliques": limit,
		})
		cliques, trailer := streamJob(t, e, v.ID)
		if len(cliques) != limit {
			t.Fatalf("workers=%d: streamed %d cliques, want exactly %d", workers, len(cliques), limit)
		}
		if trailer["state"] != string(service.StateStopped) || trailer["stop_reason"] != "max_cliques" {
			t.Fatalf("workers=%d: trailer %v, want stopped/max_cliques", workers, trailer)
		}
	}
}

func TestJobDeadline(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	// Large enough that 1ns always expires first.
	g := hbbmc.GenerateER(2000, 30000, 5)
	e.registerGraph("er", g)
	v := e.startJob(map[string]any{"dataset": "er", "mode": "count", "timeout": "1ns"})
	v = e.waitJob(v.ID)
	if v.State != service.StateStopped || v.StopReason != "deadline" {
		t.Fatalf("deadline job: state=%s reason=%q, want stopped/deadline", v.State, v.StopReason)
	}
}

func TestBadJobRequests(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(100, 300, 6)
	e.registerGraph("er", g)
	for name, req := range map[string]map[string]any{
		"unknown dataset": {"dataset": "nope"},
		"bad mode":        {"dataset": "er", "mode": "explode"},
		"bad algorithm":   {"dataset": "er", "algorithm": "quantum"},
		"bad timeout":     {"dataset": "er", "timeout": "later"},
		"negative budget": {"dataset": "er", "max_cliques": -3},
		"bad et":          {"dataset": "er", "et": 9},
		"bad edge order":  {"dataset": "er", "edge_order": "chaos"},
		"bad inner":       {"dataset": "er", "inner": "chaos"},
	} {
		resp, data := e.do("POST", "/v1/jobs", req)
		if resp.StatusCode == http.StatusAccepted {
			t.Errorf("%s: accepted (%s)", name, data)
		}
	}
	// BK on a small graph is fine (the guard permits it) — sanity-check the
	// last case actually exercised options validation, not the guard.
	resp, data := e.do("POST", "/v1/jobs", map[string]any{"dataset": "er", "algorithm": "bkpivot", "et": 0, "gr": false})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bkpivot job rejected: %s", data)
	}
	var v service.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	e.waitJob(v.ID)
}

func TestHealthz(t *testing.T) {
	e := newTestEnv(t, service.Config{WorkerSlots: 3})
	resp, data := e.do("GET", "/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["worker_slots"] != float64(3) {
		t.Fatalf("healthz = %v", h)
	}
}

// TestCancelFreesSlotsAndAdmits pins the acceptance flow: a cancelled
// streaming job frees its worker slots, verified by a follow-up job
// admitting immediately, and saturation returns 429.
func TestCancelFreesSlotsAndAdmits(t *testing.T) {
	withTestProcs(t, 2)
	e := newTestEnv(t, service.Config{WorkerSlots: 2, QueueWait: 100 * time.Millisecond})
	g := hbbmc.GenerateER(1500, 40000, 8) // enough cliques to outlast the test
	e.registerGraph("er", g)

	// Job 1 takes both slots and blocks: nobody drains its 1-clique buffer.
	v1 := e.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "workers": 2, "buffer": 1})

	// Saturation: a second job cannot be admitted and gets 429.
	resp, data := e.do("POST", "/v1/jobs", map[string]any{"dataset": "er", "mode": "count", "workers": 2})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d (%s), want 429", resp.StatusCode, data)
	}
	var rejected service.JobView
	if err := json.Unmarshal(data, &rejected); err != nil {
		t.Fatal(err)
	}
	if rejected.State != service.StateFailed {
		t.Fatalf("rejected job state = %s, want failed", rejected.State)
	}
	if e.metric("admission_rejected") != 1 {
		t.Fatal("admission_rejected did not move")
	}

	// Cancel job 1; its slots must free.
	resp, _ = e.do("DELETE", "/v1/jobs/"+v1.ID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", resp.StatusCode)
	}
	v1 = e.waitJob(v1.ID)
	if v1.State != service.StateStopped || v1.StopReason != "cancelled" {
		t.Fatalf("cancelled job: state=%s reason=%q", v1.State, v1.StopReason)
	}

	// A follow-up job admits immediately (within the 100ms queue wait).
	v3 := e.startJob(map[string]any{"dataset": "er", "mode": "count", "workers": 2, "max_cliques": 10})
	v3 = e.waitJob(v3.ID)
	if v3.State != service.StateStopped { // max_cliques stop
		t.Fatalf("follow-up job state = %s", v3.State)
	}
	if stopped := e.metric("jobs_stopped"); stopped != 2 {
		t.Fatalf("jobs_stopped = %d, want 2", stopped)
	}
}

// TestClientDisconnectCancelsJob: dropping the lone streaming client stops
// the job instead of leaving it blocked on the full channel forever.
func TestClientDisconnectCancelsJob(t *testing.T) {
	e := newTestEnv(t, service.Config{WorkerSlots: 2})
	// The stream must still be mid-flight when the disconnect lands: kernel
	// socket buffers swallow a few hundred KB even with no reader, so the
	// graph's NDJSON output has to be far larger than that (a BA graph this
	// size has >100k maximal cliques, several MB of lines).
	g := hbbmc.GenerateBA(12000, 10, 9)
	e.registerGraph("ba", g)
	v := e.startJob(map[string]any{"dataset": "ba", "mode": "enumerate", "buffer": 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", e.ts.URL+"/v1/jobs/"+v.ID+"/cliques", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("never received stream data: %v", err)
	}
	cancel() // drop the client mid-stream
	resp.Body.Close()

	v = e.waitJob(v.ID)
	if v.State != service.StateStopped {
		t.Fatalf("job after client disconnect: %s, want stopped", v.State)
	}
	if v.StopReason != "client disconnected" {
		t.Fatalf("stop reason %q", v.StopReason)
	}
}

func TestStreamOnCountJobRejected(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(100, 300, 10)
	e.registerGraph("er", g)
	v := e.startJob(map[string]any{"dataset": "er", "mode": "count"})
	resp, _ := e.do("GET", "/v1/jobs/"+v.ID+"/cliques", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stream on count job = %d, want 400", resp.StatusCode)
	}
	e.waitJob(v.ID)
}

func TestJobListAndUnknowns(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(100, 300, 11)
	e.registerGraph("er", g)
	v := e.startJob(map[string]any{"dataset": "er", "mode": "count"})
	e.waitJob(v.ID)
	resp, data := e.do("GET", "/v1/jobs", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), v.ID) {
		t.Fatalf("list jobs: %d %s", resp.StatusCode, data)
	}
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/jXXXXXX"},
		{"DELETE", "/v1/jobs/jXXXXXX"},
		{"GET", "/v1/jobs/jXXXXXX/cliques"},
	} {
		resp, _ := e.do(probe.method, probe.path, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s = %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// TestCancelWhileQueuedNeverRuns pins the admission/cancel race: a DELETE
// landing while the job is still waiting for worker slots must stop it —
// the job never runs, its POST returns the stopped view, and it does not
// count as an admission rejection.
func TestCancelWhileQueuedNeverRuns(t *testing.T) {
	e := newTestEnv(t, service.Config{WorkerSlots: 1, QueueWait: 30 * time.Second})
	g := hbbmc.GenerateER(1500, 40000, 12)
	e.registerGraph("er", g)

	// Fill the only slot with a blocked job.
	blocker := e.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "buffer": 1})

	// POST a second job; it queues in admission. The response arrives only
	// after the cancel below, so run it from a goroutine.
	type postResult struct {
		status int
		view   service.JobView
	}
	posted := make(chan postResult, 1)
	go func() {
		resp, data := e.do("POST", "/v1/jobs", map[string]any{"dataset": "er", "mode": "count"})
		var v service.JobView
		_ = json.Unmarshal(data, &v)
		posted <- postResult{resp.StatusCode, v}
	}()

	// Find the queued job through the list API and cancel it.
	var queuedID string
	deadline := time.Now().Add(5 * time.Second)
	for queuedID == "" {
		if time.Now().After(deadline) {
			t.Fatal("second job never appeared as queued")
		}
		_, data := e.do("GET", "/v1/jobs", nil)
		var list struct {
			Jobs []service.JobView `json:"jobs"`
		}
		if err := json.Unmarshal(data, &list); err != nil {
			t.Fatal(err)
		}
		for _, v := range list.Jobs {
			if v.ID != blocker.ID && v.State == service.StateQueued {
				queuedID = v.ID
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ := e.do("DELETE", "/v1/jobs/"+queuedID, nil)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued job = %d", resp.StatusCode)
	}

	res := <-posted
	if res.status != http.StatusOK || res.view.State != service.StateStopped {
		t.Fatalf("cancelled-while-queued POST returned %d state=%s, want 200 stopped", res.status, res.view.State)
	}
	if v := e.waitJob(queuedID); v.State != service.StateStopped || v.StartedAt != "" {
		t.Fatalf("queued job ended state=%s started=%q, want stopped and never started", v.State, v.StartedAt)
	}
	if rej := e.metric("admission_rejected"); rej != 0 {
		t.Fatalf("admission_rejected = %d after a user cancel, want 0", rej)
	}

	// The blocker still owns its slot; clean it up and confirm drain.
	e.do("DELETE", "/v1/jobs/"+blocker.ID, nil)
	if v := e.waitJob(blocker.ID); v.State != service.StateStopped {
		t.Fatalf("blocker ended %s", v.State)
	}
}

// countCliques computes the expected clique count in-process.
func countCliques(t *testing.T, g *hbbmc.Graph) int64 {
	t.Helper()
	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := sess.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

package service_test

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/obs"
	"github.com/graphmining/hbbmc/internal/service"
)

var traceIDRE = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestJobTraceEndpoint runs one streamed job and checks its observable
// timeline end to end: the JobView carries the trace ID and queue wait, the
// stream trailer embeds the span list, and GET /v1/jobs/{id}/trace serves
// the same timeline with the lifecycle spans in start order.
func TestJobTraceEndpoint(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(300, 1500, 3)
	e.registerGraph("er", g)

	v := e.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "phase_timers": true})
	if !traceIDRE.MatchString(v.TraceID) {
		t.Fatalf("JobView trace_id = %q, want 32 lowercase hex digits", v.TraceID)
	}
	if v.QueueWaitMS < 0 {
		t.Fatalf("queue_wait_ms = %v, want >= 0", v.QueueWaitMS)
	}
	cliques, trailer := streamJob(t, e, v.ID)
	if len(cliques) == 0 {
		t.Fatal("no cliques streamed")
	}
	if trailer["trace"] == nil {
		t.Fatal("stream trailer carries no trace")
	}

	resp, data := e.do("GET", "/v1/jobs/"+v.ID+"/trace", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: %d %s", resp.StatusCode, data)
	}
	var tv obs.TraceView
	if err := json.Unmarshal(data, &tv); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, data)
	}
	if tv.TraceID != v.TraceID {
		t.Fatalf("trace endpoint ID %q != JobView trace ID %q", tv.TraceID, v.TraceID)
	}
	if tv.RemoteParent {
		t.Fatal("locally created job reports a remote parent")
	}
	names := make(map[string]bool)
	for _, sp := range tv.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"session_acquire", "queued", "run", "drain"} {
		if !names[want] {
			t.Fatalf("trace lacks span %q; have %v", want, tv.Spans)
		}
	}
	if !sort.SliceIsSorted(tv.Spans, func(i, j int) bool {
		return tv.Spans[i].StartUnixNS < tv.Spans[j].StartUnixNS
	}) {
		t.Fatalf("spans not ordered by start time: %v", tv.Spans)
	}

	if _, data := e.do("GET", "/v1/jobs/nope/trace", nil); !strings.Contains(string(data), "unknown job") {
		t.Fatalf("missing job: %s", data)
	}
}

// TestMetricsPrometheus checks the /metrics content negotiation and the
// exposition itself: the default scrape is Prometheus text with typed
// families and populated serving histograms, ?format=json and an
// application/json Accept header return the sorted flat counter object.
func TestMetricsPrometheus(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(400, 3000, 4)
	e.registerGraph("er", g)
	v := e.startJob(map[string]any{"dataset": "er", "mode": "count", "phase_timers": true})
	if got := e.waitJob(v.ID); got.State != service.StateDone {
		t.Fatalf("job ended %s", got.State)
	}

	resp, data := e.do("GET", "/metrics", nil)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("default content type %q, want Prometheus text exposition", ct)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE mced_job_duration_seconds histogram",
		"# TYPE mced_queue_wait_seconds histogram",
		"# TYPE mced_phase_seconds histogram",
		"# TYPE mced_shard_rtt_seconds histogram",
		"# TYPE mced_session_build_seconds histogram",
		`mced_job_duration_seconds_bucket{le="+Inf"} 1`,
		"mced_queue_wait_seconds_count 1",
		"mced_session_build_seconds_count 1",
		"# TYPE mced_jobs_done counter",
		"mced_jobs_done 1",
		"# TYPE mced_jobs_running gauge",
		"# TYPE go_goroutines gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	// The job ran with phase timers on a non-trivial graph: at least one
	// phase histogram observed a non-zero duration.
	var phaseObs int
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "mced_phase_seconds_count{") {
			n := line[strings.LastIndexByte(line, ' ')+1:]
			if n != "0" {
				phaseObs++
			}
		}
	}
	if phaseObs == 0 {
		t.Error("no phase histogram observed anything despite phase_timers")
	}
	// One TYPE line per family, even for the labelled phase variants.
	if n := strings.Count(text, "# TYPE mced_phase_seconds "); n != 1 {
		t.Errorf("%d TYPE lines for mced_phase_seconds, want 1", n)
	}

	fetchJSON := func(path, accept string) (*http.Response, []byte) {
		r, err := http.NewRequest("GET", e.ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		resp, err := e.ts.Client().Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	for _, variant := range []struct{ path, accept string }{
		{"/metrics?format=json", ""},
		{"/metrics", "application/json"},
	} {
		resp, body := fetchJSON(variant.path, variant.accept)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%v: negotiated content type %q, want JSON", variant, ct)
		}
		var m map[string]int64
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("JSON metrics: %v\n%s", err, body)
		}
		if m["mced_jobs_done"] != 1 {
			t.Fatalf("mced_jobs_done = %d, want 1", m["mced_jobs_done"])
		}
		// Keys render sorted for stable diffs.
		var keys []string
		for _, line := range strings.Split(string(body), "\n") {
			if i := strings.Index(line, `"`); i >= 0 {
				if j := strings.Index(line[i+1:], `"`); j >= 0 {
					keys = append(keys, line[i+1:i+1+j])
				}
			}
		}
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("JSON metric keys not sorted: %v", keys)
		}
	}
}

// TestDistributedTracePropagation runs a sharded job on a 3-worker cluster
// and checks cross-node trace stitching: every worker job adopted the
// coordinator's trace ID via the traceparent header, and the coordinator's
// merged timeline carries dispatch and worker spans from all three peers.
func TestDistributedTracePropagation(t *testing.T) {
	g := hbbmc.GenerateER(400, 3000, 5)
	c := newCluster(t, 3, "er", g, nil)

	v := c.coord.startJob(map[string]any{"dataset": "er", "mode": "enumerate"})
	cliques, trailer := streamJob(t, c.coord, v.ID)
	if len(cliques) == 0 || trailer["state"] != string(service.StateDone) {
		t.Fatalf("sharded job: %d cliques, trailer %v", len(cliques), trailer)
	}

	// Every worker saw at least one shard job, and each adopted the
	// coordinator's trace ID (propagated via the traceparent header).
	for i, w := range c.workers {
		resp, data := w.do("GET", "/v1/jobs", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("worker %d job list: %d", i, resp.StatusCode)
		}
		var list struct {
			Jobs []service.JobView `json:"jobs"`
		}
		if err := json.Unmarshal(data, &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) == 0 {
			t.Fatalf("worker %d ran no shard jobs", i)
		}
		for _, wj := range list.Jobs {
			if wj.TraceID != v.TraceID {
				t.Fatalf("worker %d job %s trace %q, want coordinator trace %q",
					i, wj.ID, wj.TraceID, v.TraceID)
			}
		}
	}

	// The coordinator's merged timeline nests the shard work: dispatch
	// spans for every peer, and worker-side spans tagged with their peer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, data := c.coord.do("GET", "/v1/jobs/"+v.ID+"/trace", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("coordinator trace: %d %s", resp.StatusCode, data)
		}
		var tv obs.TraceView
		if err := json.Unmarshal(data, &tv); err != nil {
			t.Fatal(err)
		}
		if tv.TraceID != v.TraceID {
			t.Fatalf("coordinator trace ID %q != job trace ID %q", tv.TraceID, v.TraceID)
		}
		dispatchPeers := make(map[string]bool)
		workerSpanPeers := make(map[string]bool)
		for _, sp := range tv.Spans {
			switch {
			case sp.Name == "shard_dispatch":
				dispatchPeers[sp.Peer] = true
				if sp.BranchHi <= sp.BranchLo {
					t.Fatalf("dispatch span with empty branch range: %+v", sp)
				}
			case sp.Peer != "":
				workerSpanPeers[sp.Peer] = true
			}
		}
		if len(dispatchPeers) == 3 && len(workerSpanPeers) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatch spans from %d peers, worker spans from %d peers, want 3 and 3\nspans: %v",
				len(dispatchPeers), len(workerSpanPeers), tv.Spans)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMetricsContract pins what dashboards, CI and the smoke scripts read
// from /metrics after one job of each type: the JSON view's keys are exactly
// the 31 flat mced_ metrics, every one of them has an exposition sample of
// the same value, and each family keeps its HELP text and TYPE.
func TestMetricsContract(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	e.registerGraph("er", hbbmc.GenerateER(300, 1500, 14))
	for _, typ := range []string{"enumerate", "count", "max_clique", "top_k", "kclique_count"} {
		req := map[string]any{"dataset": "er", "type": typ}
		if typ == "top_k" || typ == "kclique_count" {
			req["k"] = 3
		}
		v := e.startJob(req)
		if typ == "enumerate" || typ == "top_k" {
			streamJob(t, e, v.ID)
		}
		if got := e.waitJob(v.ID); got.State != service.StateDone {
			t.Fatalf("%s job ended %s", typ, got.State)
		}
	}

	gauges := map[string]bool{
		"mced_jobs_queued": true, "mced_jobs_running": true, "mced_session_cache_bytes": true,
		"mced_datasets": true, "mced_peer_breaker_open": true,
	}
	want := []string{
		"mced_admission_rejected", "mced_cliques_emitted", "mced_datasets",
		"mced_jobs_done", "mced_jobs_failed", "mced_jobs_queued", "mced_jobs_running",
		"mced_jobs_stopped", "mced_jobs_type_count", "mced_jobs_type_enumerate",
		"mced_jobs_type_kclique_count", "mced_jobs_type_max_clique", "mced_jobs_type_top_k",
		"mced_journal_bytes_appended", "mced_journal_records_appended", "mced_journal_replays",
		"mced_journal_truncated_tails", "mced_peer_breaker_open", "mced_peer_breaker_trips",
		"mced_peer_failures", "mced_resume_branches_skipped", "mced_resume_jobs_restored",
		"mced_session_cache_bytes", "mced_session_cache_evictions", "mced_session_cache_hits",
		"mced_session_cache_misses", "mced_shards_dispatched", "mced_shards_failed",
		"mced_shards_retried", "mced_slow_queries", "mced_slow_queries_suppressed",
	}
	_, data := e.do("GET", "/metrics?format=json", nil)
	var flat map[string]json.Number
	if err := json.Unmarshal(data, &flat); err != nil {
		t.Fatalf("JSON metrics: %v\n%s", err, data)
	}
	var keys []string
	for k := range flat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Fatalf("JSON metric keys\n%v\nwant\n%v", keys, want)
	}
	for _, name := range []string{"mced_jobs_done", "mced_jobs_type_enumerate", "mced_jobs_type_kclique_count"} {
		if n, _ := flat[name].Int64(); n < 1 {
			t.Errorf("%s = %s after one job of each type, want ≥ 1", name, flat[name])
		}
	}

	_, prom := e.do("GET", "/metrics", nil)
	text := string(prom)
	samples := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "mced_") {
			samples[name] = value
		}
	}
	for _, name := range want {
		got, err1 := strconv.ParseFloat(samples[name], 64)
		jv, err2 := flat[name].Float64()
		if err1 != nil || err2 != nil || got != jv {
			t.Errorf("%s: exposition sample %q, JSON value %s", name, samples[name], flat[name])
		}
		kind, help := "counter", "Cumulative counter from the mced metrics set."
		if gauges[name] {
			kind, help = "gauge", "Gauge from the mced metrics set."
		}
		for _, header := range []string{"# HELP " + name + " " + help, "# TYPE " + name + " " + kind} {
			if !strings.Contains(text, header+"\n") {
				t.Errorf("exposition lacks %q", header)
			}
		}
	}
}

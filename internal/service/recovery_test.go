package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/chaos"
	"github.com/graphmining/hbbmc/internal/service"
	"github.com/graphmining/hbbmc/internal/service/journal"
)

// jenv is a journaled server with explicit lifecycle control: crash() drops
// it without a graceful shutdown (the wedged journal on disk is the crash
// image a kill -9 would leave), stop() shuts down gracefully.
type jenv struct {
	*testEnv
	srv *service.Server
}

func openJournaled(t *testing.T, cfg service.Config) *jenv {
	t.Helper()
	srv, err := service.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close) // idempotent; crash()/stop() usually ran already
	return &jenv{testEnv: &testEnv{t: t, ts: ts}, srv: srv}
}

func (e *jenv) crash() { e.ts.Close() }

func (e *jenv) stop() {
	e.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.t.Errorf("graceful shutdown: %v", err)
	}
	e.ts.Close()
}

// waitReady polls /readyz until the journal replay has been applied.
func (e *jenv) waitReady() {
	e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := e.do("GET", "/readyz", nil)
		if resp.StatusCode == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			e.t.Fatal("server never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// saveGraph writes g once so every server generation registers the same
// file (the journal re-registers datasets by path on replay).
func saveGraph(t *testing.T, g *hbbmc.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.hbg")
	if err := g.SaveBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func (e *jenv) registerPath(name, path string) {
	e.t.Helper()
	resp, data := e.do("POST", "/v1/datasets", map[string]string{"name": name, "path": path})
	if resp.StatusCode != http.StatusCreated {
		e.t.Fatalf("register %s: %d %s", name, resp.StatusCode, data)
	}
}

// markedStream is what a crash-aware streaming client retains: everything
// up to the last {"ckpt":W} marker is durable-confirmed (kept), everything
// after it (tail) is discarded when the connection dies, and cursor is the
// resume_after value for the reconnect.
type markedStream struct {
	kept    [][]int32
	tail    [][]int32
	cursor  int
	trailer map[string]any
}

// streamMarked consumes a clique stream tracking checkpoint markers.
// onMarker (optional) fires after each marker line.
func streamMarked(t *testing.T, e *testEnv, id, query string, onMarker func(cursor int)) *markedStream {
	t.Helper()
	resp, err := e.ts.Client().Get(e.ts.URL + "/v1/jobs/" + id + "/cliques" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %s%s: %d %s", id, query, resp.StatusCode, body)
	}
	ms := &markedStream{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			C    []int32 `json:"c"`
			Ckpt int     `json:"ckpt"`
			Done bool    `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Done:
			ms.trailer = map[string]any{}
			if err := json.Unmarshal(sc.Bytes(), &ms.trailer); err != nil {
				t.Fatal(err)
			}
		case line.Ckpt > 0:
			ms.kept = append(ms.kept, ms.tail...)
			ms.tail = ms.tail[:0]
			ms.cursor = line.Ckpt
			if onMarker != nil {
				onMarker(line.Ckpt)
			}
		default:
			ms.tail = append(ms.tail, line.C)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return ms
}

// assertExactlyOnce verifies the union of clique batches covers the ground
// truth exactly once.
func assertExactlyOnce(t *testing.T, want map[string]bool, batches ...[][]int32) {
	t.Helper()
	got := make(map[string]bool, len(want))
	for _, batch := range batches {
		for _, c := range batch {
			k := cliqueKey(c)
			if got[k] {
				t.Fatalf("clique %v delivered twice", c)
			}
			if !want[k] {
				t.Fatalf("clique %v not in ground truth", c)
			}
			got[k] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d distinct cliques, want %d", len(got), len(want))
	}
}

// TestCrashPointMatrix kills the daemon (via the fault-injection harness:
// the journal wedges exactly as a kill -9 at that point would leave it) at
// every journal crash point, for every resumable job type, and proves the
// replayed+resumed results converge to the uninterrupted run's.
func TestCrashPointMatrix(t *testing.T) {
	withTestProcs(t, 2)
	g := hbbmc.GenerateER(260, 1560, 7)
	gpath := saveGraph(t, g)
	want := refCliqueSet(t, g)
	wantCount := int64(len(want))
	wantMax := 0
	for k := range want {
		n := 1
		for _, ch := range k {
			if ch == ',' {
				n++
			}
		}
		if n > wantMax {
			wantMax = n
		}
	}

	for _, point := range journal.CrashPoints() {
		for _, mode := range []string{"enumerate", "count", "max_clique"} {
			t.Run(point+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				cfg := service.Config{JournalDir: dir, CheckpointInterval: -1}
				a := openJournaled(t, cfg)
				a.waitReady()
				a.registerPath("er", gpath)

				chaos.Reset()
				t.Cleanup(chaos.Reset)
				if err := chaos.Arm(point, "crash"); err != nil {
					t.Fatal(err)
				}

				var ms *markedStream
				v := a.startJob(map[string]any{"dataset": "er", "mode": mode, "workers": 2})
				if mode == "enumerate" {
					ms = streamMarked(t, a.testEnv, v.ID, "", nil)
				} else {
					a.waitJob(v.ID)
				}
				fired := chaos.Fired(point) > 0
				chaos.Reset()
				a.crash()

				b := openJournaled(t, cfg)
				defer b.stop()
				b.waitReady()

				resp, data := b.do("GET", "/v1/jobs/"+v.ID, nil)
				if !fired {
					// The crash point never triggered (e.g. no rotation
					// happened): the journal is complete and the job must be
					// restored terminal with its full stats.
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("complete journal: job %s not restored: %d %s", v.ID, resp.StatusCode, data)
					}
					var view service.JobView
					if err := json.Unmarshal(data, &view); err != nil {
						t.Fatal(err)
					}
					if view.State != service.StateDone || view.Stats == nil {
						t.Fatalf("restored job = %s (stats %v), want done with stats", view.State, view.Stats)
					}
					assertRestoredStats(t, mode, view.Stats, wantCount, wantMax)
					return
				}

				switch {
				case resp.StatusCode == http.StatusNotFound:
					// The crash predated the durable submit: the job was
					// never acknowledged as journaled, so the client saw no
					// durable progress either. Re-submitting converges.
					if ms != nil && (len(ms.kept) > 0 || ms.cursor != 0) {
						t.Fatalf("job lost by the crash but client saw durable progress (cursor %d)", ms.cursor)
					}
					v2 := b.startJob(map[string]any{"dataset": "er", "mode": mode, "workers": 2})
					if mode == "enumerate" {
						rerun := streamMarked(t, b.testEnv, v2.ID, "", nil)
						assertExactlyOnce(t, want, rerun.kept, rerun.tail)
						if rerun.trailer == nil || rerun.trailer["state"] != string(service.StateDone) {
							t.Fatalf("re-run trailer %v", rerun.trailer)
						}
					} else {
						fv := b.waitJob(v2.ID)
						assertRestoredStats(t, mode, fv.Stats, wantCount, wantMax)
					}
				case resp.StatusCode == http.StatusOK:
					if mode == "enumerate" {
						query := ""
						if ms.cursor > 0 {
							query = "?resume_after=" + strconv.Itoa(ms.cursor)
						}
						rest := streamMarked(t, b.testEnv, v.ID, query, nil)
						if rest.trailer == nil || rest.trailer["state"] != string(service.StateDone) {
							t.Fatalf("resumed trailer %v, want done", rest.trailer)
						}
						// The trailer stats report the whole logical
						// enumeration (durable prefix folded back in), even
						// though this connection only carried the re-run.
						stats, _ := rest.trailer["stats"].(map[string]any)
						if stats == nil || int64(stats["cliques"].(float64)) != wantCount {
							t.Fatalf("resumed trailer stats = %v, want %d cliques", stats, wantCount)
						}
						assertExactlyOnce(t, want, ms.kept, rest.kept, rest.tail)
					} else {
						// Scalar jobs resume autonomously after replay.
						fv := b.waitJob(v.ID)
						if fv.State != service.StateDone {
							t.Fatalf("resumed %s job ended %s (%s%s)", mode, fv.State, fv.StopReason, fv.Error)
						}
						assertRestoredStats(t, mode, fv.Stats, wantCount, wantMax)
					}
				default:
					t.Fatalf("GET restored job: %d %s", resp.StatusCode, data)
				}
			})
		}
	}
}

func assertRestoredStats(t *testing.T, mode string, stats *hbbmc.Stats, wantCount int64, wantMax int) {
	t.Helper()
	if stats == nil {
		t.Fatal("terminal job has no stats")
	}
	switch mode {
	case "enumerate", "count":
		if stats.Cliques != wantCount {
			t.Fatalf("%s: stats.Cliques = %d, want %d", mode, stats.Cliques, wantCount)
		}
	case "max_clique":
		if stats.MaxCliqueSize != wantMax {
			t.Fatalf("max_clique: stats.MaxCliqueSize = %d, want %d", stats.MaxCliqueSize, wantMax)
		}
	}
}

// TestResumeCursorExactlyOnce is the client-kill scenario: the streaming
// connection dies mid-stream, the daemon dies before it can journal the
// cancellation, and the restarted daemon's reconnecting client — resuming
// from the last checkpoint marker it saw — receives each clique exactly
// once across both connections.
func TestResumeCursorExactlyOnce(t *testing.T) {
	withTestProcs(t, 2)
	g := hbbmc.GenerateER(400, 3200, 11)
	gpath := saveGraph(t, g)
	want := refCliqueSet(t, g)

	dir := t.TempDir()
	cfg := service.Config{JournalDir: dir, CheckpointInterval: -1}
	a := openJournaled(t, cfg)
	a.waitReady()
	a.registerPath("er", gpath)

	chaos.Reset()
	t.Cleanup(chaos.Reset)
	// The daemon "dies" before the client-disconnect cancellation reaches
	// the journal: the on-disk image ends at the last durable checkpoint.
	if err := chaos.Arm("journal.terminal", "crash"); err != nil {
		t.Fatal(err)
	}

	v := a.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "workers": 2})
	resp, err := a.ts.Client().Get(a.ts.URL + "/v1/jobs/" + v.ID + "/cliques")
	if err != nil {
		t.Fatal(err)
	}
	var kept, tail [][]int32
	cursor := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			C    []int32 `json:"c"`
			Ckpt int     `json:"ckpt"`
			Done bool    `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done {
			t.Fatal("stream finished before the simulated kill; use a larger graph")
		}
		if line.Ckpt > 0 {
			kept = append(kept, tail...)
			tail = tail[:0]
			cursor = line.Ckpt
			if cursor >= 2 && len(kept) > 0 {
				break // kill the connection mid-stream
			}
			continue
		}
		tail = append(tail, line.C)
	}
	resp.Body.Close()
	if cursor < 1 {
		t.Fatal("no checkpoint marker observed before the kill")
	}

	// Wait for the disconnected job to settle (cancelled server-side; its
	// terminal record is refused by the wedged journal).
	a.waitJob(v.ID)
	chaos.Reset()
	a.crash()

	b := openJournaled(t, cfg)
	defer b.stop()
	b.waitReady()
	if restored := b.metric("resume_jobs_restored"); restored < 1 {
		t.Fatalf("resume_jobs_restored = %d, want ≥ 1", restored)
	}
	rest := streamMarked(t, b.testEnv, v.ID, "?resume_after="+strconv.Itoa(cursor), nil)
	if rest.trailer == nil || rest.trailer["state"] != string(service.StateDone) {
		t.Fatalf("resumed trailer %v, want done", rest.trailer)
	}
	assertExactlyOnce(t, want, kept, rest.kept, rest.tail)
	if skipped := b.metric("resume_branches_skipped"); skipped < int64(cursor) {
		t.Fatalf("resume_branches_skipped = %d, want ≥ %d", skipped, cursor)
	}
}

// TestGracefulShutdownResume covers SIGTERM with running, mid-stream and
// queued jobs: shutdown stops are deliberately not journaled as terminal,
// so the restarted daemon resumes all of them to full results.
func TestGracefulShutdownResume(t *testing.T) {
	withTestProcs(t, 2)
	g := hbbmc.GenerateER(400, 3200, 13)
	gpath := saveGraph(t, g)
	want := refCliqueSet(t, g)
	wantCount := int64(len(want))

	dir := t.TempDir()
	cfg := service.Config{JournalDir: dir, CheckpointInterval: -1, WorkerSlots: 1, QueueWait: 30 * time.Second}
	a := openJournaled(t, cfg)
	a.waitReady()
	a.registerPath("er", gpath)

	// Mid-stream enumerate job holding the only worker slot.
	ev := a.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "workers": 1})

	// Queued count job: blocked in admission behind the enumerate job, its
	// submission already durable in the journal.
	countResp := make(chan []byte, 1)
	go func() {
		_, data := a.do("POST", "/v1/jobs", map[string]any{"dataset": "er", "mode": "count", "workers": 1})
		countResp <- data
	}()
	// The POST must be admitted before Shutdown begins, or the server
	// rightly answers 503: wait until the job list shows it queued.
	waitQueued(t, a.testEnv, "count")

	// Stream until the first checkpoint marker, then SIGTERM the daemon
	// while the stream is live.
	shutdownDone := make(chan struct{})
	shutdownStarted := false // onMarker runs on the one stream-reader goroutine
	ms := streamMarked(t, a.testEnv, ev.ID, "", func(cursor int) {
		if shutdownStarted {
			return
		}
		shutdownStarted = true
		go func() {
			defer close(shutdownDone)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := a.srv.Shutdown(ctx); err != nil {
				t.Errorf("graceful shutdown: %v", err)
			}
		}()
	})
	<-shutdownDone
	if ms.trailer == nil || ms.trailer["state"] != string(service.StateStopped) {
		t.Fatalf("shutdown trailer %v, want stopped", ms.trailer)
	}

	// The drained server answers 503 on /readyz until it exits.
	resp, data := a.do("GET", "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d %s", resp.StatusCode, data)
	}

	var queued service.JobView
	if err := json.Unmarshal(<-countResp, &queued); err != nil || queued.ID == "" {
		t.Fatalf("queued count job response undecodable: %v", err)
	}
	a.ts.Close()

	b := openJournaled(t, cfg)
	defer b.stop()
	b.waitReady()

	// The queued count job resumes autonomously to the exact total.
	cv := b.waitJob(queued.ID)
	if cv.State != service.StateDone || cv.Stats == nil || cv.Stats.Cliques != wantCount {
		t.Fatalf("resumed count job: state=%s stats=%v, want done with %d cliques", cv.State, cv.Stats, wantCount)
	}

	// The mid-stream enumerate job resumes from the client's cursor with
	// exactly-once delivery across the two connections.
	query := ""
	if ms.cursor > 0 {
		query = "?resume_after=" + strconv.Itoa(ms.cursor)
	}
	rest := streamMarked(t, b.testEnv, ev.ID, query, nil)
	if rest.trailer == nil || rest.trailer["state"] != string(service.StateDone) {
		t.Fatalf("resumed trailer %v, want done", rest.trailer)
	}
	assertExactlyOnce(t, want, ms.kept, rest.kept, rest.tail)
}

// TestReadyzDuringReplay holds recovery open with an injected delay and
// checks /readyz flips 503 → 200, and that job submission is deferred
// while the replay is applied.
func TestReadyzDuringReplay(t *testing.T) {
	chaos.Reset()
	t.Cleanup(chaos.Reset)
	if err := chaos.Arm("service.replay", "delay:1500ms"); err != nil {
		t.Fatal(err)
	}
	e := openJournaled(t, service.Config{JournalDir: t.TempDir()})
	defer e.stop()

	resp, data := e.do("GET", "/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during replay: %d %s", resp.StatusCode, data)
	}
	var body map[string]string
	if err := json.Unmarshal(data, &body); err != nil || body["status"] != "recovering" {
		t.Fatalf("/readyz body %s, want recovering", data)
	}
	if resp, data := e.do("POST", "/v1/jobs", map[string]any{"dataset": "er"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job submission during replay: %d %s, want 503", resp.StatusCode, data)
	}
	e.waitReady()
	if replays := e.metric("journal_replays"); replays != 1 {
		t.Fatalf("journal_replays = %d, want 1", replays)
	}
}

// TestDeleteDatasetBlockedByJournaledJob: a dataset referenced by a
// journaled non-terminal job cannot be unregistered — neither live nor
// after a restart restores the job.
func TestDeleteDatasetBlockedByJournaledJob(t *testing.T) {
	g := hbbmc.GenerateER(300, 1800, 17)
	gpath := saveGraph(t, g)
	dir := t.TempDir()
	cfg := service.Config{JournalDir: dir}
	a := openJournaled(t, cfg)
	a.waitReady()
	a.registerPath("er", gpath)

	// A tiny stream buffer keeps the enumerate job running (producer
	// blocked on the unconsumed channel) while we poke the dataset API.
	v := a.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "buffer": 1})
	waitState(t, a.testEnv, v.ID, service.StateRunning)

	resp, data := a.do("DELETE", "/v1/datasets/er", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE dataset with live journaled job: %d %s, want 409", resp.StatusCode, data)
	}
	a.crash()

	b := openJournaled(t, cfg)
	b.waitReady()
	resp, data = b.do("DELETE", "/v1/datasets/er", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE dataset with restored job: %d %s, want 409", resp.StatusCode, data)
	}
	// Cancelling the restored job unblocks the delete.
	if resp, data := b.do("DELETE", "/v1/jobs/"+v.ID, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel restored job: %d %s", resp.StatusCode, data)
	}
	b.waitJob(v.ID)
	if resp, data := b.do("DELETE", "/v1/datasets/er", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE dataset after cancel: %d %s, want 204", resp.StatusCode, data)
	}
	// The removal is journaled too: another restart must not resurrect it.
	b.stop()
	c := openJournaled(t, cfg)
	defer c.stop()
	c.waitReady()
	if resp, data := c.do("DELETE", "/v1/datasets/er", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dataset resurrected after journaled removal: %d %s", resp.StatusCode, data)
	}
}

// TestTerminalRecordDurableBeforeVisible: a job reads as terminal only once
// its terminal record is durable. Shutdown closes the journal when every
// job reads terminal, so a record still being appended then is lost and
// the finished job re-runs after a restart. A slowed terminal append makes
// the window wide: the journal is copied as soon as a GET reads the job as
// done, and the copy's replay must hold the terminal record.
func TestTerminalRecordDurableBeforeVisible(t *testing.T) {
	g := hbbmc.GenerateER(120, 500, 31)
	gpath := saveGraph(t, g)
	dir := t.TempDir()
	e := openJournaled(t, service.Config{JournalDir: dir})
	defer e.stop()
	e.waitReady()
	e.registerPath("er", gpath)

	chaos.Reset()
	t.Cleanup(chaos.Reset)
	if err := chaos.Arm("journal.terminal", "delay:300ms"); err != nil {
		t.Fatal(err)
	}
	v := e.startJob(map[string]any{"dataset": "er", "mode": "count"})
	waitState(t, e.testEnv, v.ID, service.StateDone)

	image := t.TempDir()
	if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	jnl, rep, err := journal.Open(image, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	jr := rep.Jobs[v.ID]
	if jr == nil {
		t.Fatalf("journal image lost job %s", v.ID)
	}
	if jr.State != string(service.StateDone) {
		t.Fatalf("journal image taken once the job read done replays it as %s, want done", jr.State)
	}
}

func waitState(t *testing.T, e *testEnv, id string, want service.JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data := e.do("GET", "/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get job: %d %s", resp.StatusCode, data)
		}
		var v service.JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalMetrics asserts the mced_journal_* counters move when jobs are
// journaled.
func TestJournalMetrics(t *testing.T) {
	g := hbbmc.GenerateER(120, 500, 19)
	gpath := saveGraph(t, g)
	e := openJournaled(t, service.Config{JournalDir: t.TempDir()})
	defer e.stop()
	e.waitReady()
	e.registerPath("er", gpath)
	v := e.startJob(map[string]any{"dataset": "er", "mode": "count"})
	e.waitJob(v.ID)
	if n := e.metric("journal_records_appended"); n < 3 {
		t.Fatalf("journal_records_appended = %d, want ≥ 3 (dataset, submit, terminal)", n)
	}
	if n := e.metric("journal_bytes_appended"); n <= 0 {
		t.Fatalf("journal_bytes_appended = %d, want > 0", n)
	}
	if n := e.metric("journal_truncated_tails"); n != 0 {
		t.Fatalf("journal_truncated_tails = %d, want 0", n)
	}
}

// TestResumeAfterOnUnjournaledJob: the cursor is only meaningful for
// journal-restored jobs.
func TestResumeAfterOnUnjournaledJob(t *testing.T) {
	e := newTestEnv(t, service.Config{})
	g := hbbmc.GenerateER(100, 300, 23)
	e.registerGraph("er", g)
	v := e.startJob(map[string]any{"dataset": "er", "mode": "enumerate"})
	resp, data := e.do("GET", "/v1/jobs/"+v.ID+"/cliques?resume_after=3", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resume_after on live job: %d %s, want 400", resp.StatusCode, data)
	}
	if _, trailer := streamJob(t, e, v.ID); trailer == nil {
		t.Fatal("plain stream after rejected resume failed")
	}
}

// TestResumeUnknownCursor: a cursor that is not a durable checkpoint is a
// client error and leaves the job resumable.
func TestResumeUnknownCursor(t *testing.T) {
	g := hbbmc.GenerateER(300, 1800, 29)
	gpath := saveGraph(t, g)
	want := refCliqueSet(t, g)
	dir := t.TempDir()
	cfg := service.Config{JournalDir: dir}
	a := openJournaled(t, cfg)
	a.waitReady()
	a.registerPath("er", gpath)
	v := a.startJob(map[string]any{"dataset": "er", "mode": "enumerate", "buffer": 1})
	waitState(t, a.testEnv, v.ID, service.StateRunning)
	a.crash()

	b := openJournaled(t, cfg)
	defer b.stop()
	b.waitReady()
	resp, data := b.do("GET", "/v1/jobs/"+v.ID+"/cliques?resume_after=999999", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown cursor: %d %s, want 400", resp.StatusCode, data)
	}
	// The failed reclaim must not have consumed the job: a from-scratch
	// reclaim still yields the complete result.
	rest := streamMarked(t, b.testEnv, v.ID, "", nil)
	if rest.trailer == nil || rest.trailer["state"] != string(service.StateDone) {
		t.Fatalf("reclaim trailer %v, want done", rest.trailer)
	}
	assertExactlyOnce(t, want, rest.kept, rest.tail)
}

// waitQueued polls GET /v1/jobs until a job of the given type is listed as
// queued.
func waitQueued(t *testing.T, e *testEnv, typ string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, data := e.do("GET", "/v1/jobs", nil)
		var list struct {
			Jobs []service.JobView `json:"jobs"`
		}
		if err := json.Unmarshal(data, &list); err != nil {
			t.Fatalf("job list undecodable: %v", err)
		}
		for _, v := range list.Jobs {
			if v.Type == typ && v.State == service.StateQueued {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s job listed as queued", typ)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/graphmining/hbbmc/internal/chaos"
)

func openT(t *testing.T, dir string, opts Options) (*Journal, *Replay) {
	t.Helper()
	j, rep, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rep
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rep := openT(t, dir, Options{})
	if len(rep.Jobs) != 0 || len(rep.Datasets) != 0 {
		t.Fatalf("fresh journal replayed state: %+v", rep)
	}
	if err := j.AppendDataset("g", "/tmp/g.hbg", "hbg"); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit("j000001", json.RawMessage(`{"type":"count","dataset":"g"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendRunning("j000001", "crc32c:deadbeef", "skey", 128); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCkpt("j000001", 64, 1000, 7); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCkpt("j000001", 96, 1500, 9); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit("j000002", json.RawMessage(`{"type":"enumerate","dataset":"g"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendTerminal("j000002", "done", "", "", json.RawMessage(`{"cliques":5}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, rep2 := openT(t, dir, Options{})
	if len(rep2.Datasets) != 1 || rep2.Datasets[0].Name != "g" || rep2.Datasets[0].Format != "hbg" {
		t.Fatalf("datasets = %+v", rep2.Datasets)
	}
	j1 := rep2.Jobs["j000001"]
	if j1 == nil || j1.State != "running" || j1.Branches != 128 || j1.CRC != "crc32c:deadbeef" {
		t.Fatalf("j000001 = %+v", j1)
	}
	if j1.Watermark != 96 || j1.Ckpts[64].Cliques != 1000 || j1.Ckpts[96].MaxSize != 9 {
		t.Fatalf("j000001 ckpts = %+v watermark %d", j1.Ckpts, j1.Watermark)
	}
	j2 := rep2.Jobs["j000002"]
	if j2 == nil || !j2.Terminal() || j2.State != "done" || string(j2.Stats) != `{"cliques":5}` {
		t.Fatalf("j000002 = %+v", j2)
	}
}

// TestTerminalSurvivesLateRecords: a daemon that lost its listener but not
// its process can append a job's running record or a checkpoint after
// another daemon journaled the job's terminal state. Replay must keep the
// terminal state, reason and stats, or a restart would resume a finished
// job.
func TestTerminalSurvivesLateRecords(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	stats := json.RawMessage(`{"cliques":3}`)
	for _, err := range []error{
		j.AppendSubmit("j000001", json.RawMessage(`{"type":"count","dataset":"g"}`)),
		j.AppendRunning("j000001", "crc32c:deadbeef", "skey", 128),
		j.AppendTerminal("j000001", "stopped", "cancelled", "", stats),
		j.AppendRunning("j000001", "crc32c:deadbeef", "skey", 128),
		j.AppendCkpt("j000001", 64, 1000, 7),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	_, rep := openT(t, dir, Options{})
	j1 := rep.Jobs["j000001"]
	if j1 == nil || !j1.Terminal() || j1.State != "stopped" || j1.Reason != "cancelled" || string(j1.Stats) != string(stats) {
		t.Fatalf("j000001 replayed as %+v, want stopped (cancelled) with stats %s", j1, stats)
	}
	if j1.Watermark != 0 {
		t.Fatalf("late checkpoint moved the terminal job's watermark to %d", j1.Watermark)
	}
}

func TestCorruptTailTruncation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	if err := j.AppendSubmit("j000001", json.RawMessage(`{"type":"count"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCkpt("j000001", 10, 42, 3); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Append garbage simulating a torn write.
	path := filepath.Join(dir, "wal.00000001")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	j2, rep := openT(t, dir, Options{})
	if rep.Jobs["j000001"] == nil || rep.Jobs["j000001"].Watermark != 10 {
		t.Fatalf("replay after torn tail: %+v", rep.Jobs["j000001"])
	}
	if got := j2.Counters().TruncatedTails; got != 1 {
		t.Fatalf("TruncatedTails = %d, want 1", got)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// Appends continue cleanly after truncation.
	if err := j2.AppendCkpt("j000001", 20, 99, 4); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rep3 := openT(t, dir, Options{})
	if rep3.Jobs["j000001"].Watermark != 20 {
		t.Fatalf("post-truncation append lost: %+v", rep3.Jobs["j000001"])
	}
}

func TestRotationCompacts(t *testing.T) {
	dir := t.TempDir()
	// Tiny segment budget so every few appends rotate.
	j, _ := openT(t, dir, Options{MaxSegmentBytes: 256})
	if err := j.AppendDataset("g", "/tmp/g.hbg", "hbg"); err != nil {
		t.Fatal(err)
	}
	// A terminal job that must age out at the next rotation...
	if err := j.AppendSubmit("j000001", json.RawMessage(`{"type":"count"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendTerminal("j000001", "done", "", "", json.RawMessage(`{"cliques":1}`)); err != nil {
		t.Fatal(err)
	}
	// ...and a live job whose checkpoints must survive every rotation.
	if err := j.AppendSubmit("j000002", json.RawMessage(`{"type":"enumerate"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendRunning("j000002", "crc", "skey", 64); err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 20; w++ {
		if err := j.AppendCkpt("j000002", w, int64(w*10), w); err != nil {
			t.Fatal(err)
		}
	}
	if j.Counters().Rotations == 0 {
		t.Fatal("no rotation with 256-byte segments")
	}
	j.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal.*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("rotation left %d segments: %v", len(segs), segs)
	}

	_, rep := openT(t, dir, Options{})
	if rep.Jobs["j000001"] != nil {
		t.Fatal("terminal job survived compaction")
	}
	live := rep.Jobs["j000002"]
	if live == nil || live.State != "running" || live.Watermark != 20 {
		t.Fatalf("live job after compaction: %+v", live)
	}
	if len(live.Ckpts) != 20 || live.Ckpts[7].Cliques != 70 {
		t.Fatalf("checkpoints lost in compaction: %d retained", len(live.Ckpts))
	}
	if len(rep.Datasets) != 1 {
		t.Fatalf("dataset lost in compaction: %+v", rep.Datasets)
	}
}

func TestCrashWedgesJournal(t *testing.T) {
	t.Cleanup(chaos.Reset)
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	if err := j.AppendSubmit("j000001", json.RawMessage(`{"type":"count"}`)); err != nil {
		t.Fatal(err)
	}
	if err := chaos.Arm("journal.ckpt", "crash"); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCkpt("j000001", 5, 50, 2); err != ErrWedged {
		t.Fatalf("crash-armed AppendCkpt returned %v, want ErrWedged", err)
	}
	if !j.Wedged() {
		t.Fatal("journal not wedged after injected crash")
	}
	chaos.Reset()
	// Every later append is dropped: on-disk state is frozen at the crash.
	if err := j.AppendCkpt("j000001", 6, 60, 2); err != ErrWedged {
		t.Fatalf("post-wedge append returned %v", err)
	}
	j.Close()

	_, rep := openT(t, dir, Options{})
	job := rep.Jobs["j000001"]
	if job == nil || job.Watermark != 0 || len(job.Ckpts) != 0 {
		t.Fatalf("wedged journal leaked checkpoint: %+v", job)
	}
}

func TestTornCrashLeavesTruncatableTail(t *testing.T) {
	t.Cleanup(chaos.Reset)
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	if err := j.AppendSubmit("j000001", json.RawMessage(`{"type":"count"}`)); err != nil {
		t.Fatal(err)
	}
	if err := chaos.Arm("journal.append.torn", "crash"); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCkpt("j000001", 5, 50, 2); err != ErrWedged {
		t.Fatalf("torn-armed append returned %v", err)
	}
	chaos.Reset()
	j.Close()

	j2, rep := openT(t, dir, Options{})
	if got := j2.Counters().TruncatedTails; got != 1 {
		t.Fatalf("TruncatedTails = %d, want 1 (half frame on disk)", got)
	}
	job := rep.Jobs["j000001"]
	if job == nil || job.Watermark != 0 {
		t.Fatalf("torn checkpoint applied: %+v", job)
	}
}

func TestCountersMove(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	if err := j.AppendDataset("g", "p", "hbg"); err != nil {
		t.Fatal(err)
	}
	c := j.Counters()
	if c.Records != 1 || c.Bytes == 0 {
		t.Fatalf("counters after one append: %+v", c)
	}
}

// TestOversizedLiveStateDoesNotStormRotation pins the adaptive rotation
// trigger: when one job's retained checkpoints alone outgrow the segment
// budget, the compacted snapshot is bigger than the budget too, and a naive
// size check would re-rotate (and rewrite the whole live state) on every
// subsequent append. The trigger doubles past the snapshot size instead,
// keeping compaction amortized-linear.
func TestOversizedLiveStateDoesNotStormRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{MaxSegmentBytes: 2048})
	if err := j.AppendSubmit("j000001", json.RawMessage(`{"type":"enumerate","dataset":"g"}`)); err != nil {
		t.Fatal(err)
	}
	const n = 600 // ~70 bytes per ckpt frame: live state ≈ 20× the budget
	for w := 1; w <= n; w++ {
		if err := j.AppendCkpt("j000001", w, int64(w), 3); err != nil {
			t.Fatal(err)
		}
	}
	if rot := j.Counters().Rotations; rot < 1 || rot > 16 {
		t.Fatalf("rotations = %d, want a handful (1..16), not one per append", rot)
	}
	j.Close()

	_, rep := openT(t, dir, Options{MaxSegmentBytes: 2048})
	job := rep.Jobs["j000001"]
	if job == nil || job.Watermark != n || len(job.Ckpts) != n {
		t.Fatalf("replay after oversized compaction: %+v", job)
	}
	if job.Ckpts[n/2].Cliques != int64(n/2) {
		t.Fatalf("ckpt %d = %+v", n/2, job.Ckpts[n/2])
	}
}

package journal

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Record types. One flat record struct (type-discriminated by T) keeps the
// frame codec and the replay switch trivial; unused fields are omitted from
// the JSON payload.
const (
	// recDataset journals a dataset registration (name, path, format) so a
	// restarted daemon can re-register it before resuming jobs.
	recDataset = "dataset"
	// recDatasetRemove journals an unregistration.
	recDatasetRemove = "dataset_rm"
	// recSubmit journals a job submission: the id and the original request
	// body, enough to rebuild the job verbatim.
	recSubmit = "submit"
	// recRunning journals the transition to running together with the
	// session fingerprints the job ran against (graph CRC, session key,
	// top-level branch count) — the compatibility anchor for resume.
	recRunning = "running"
	// recCkpt journals one branch-progress checkpoint: watermark W means
	// the preprocessing residue and every branch schedule position in
	// [0, W) completed and their cliques were handed to the visitor;
	// Cliques/MaxSize are the cumulative totals over exactly that prefix.
	recCkpt = "ckpt"
	// recTerminal journals a terminal state with the final Stats.
	recTerminal = "terminal"
)

// Record is one journal entry. Fields are shared across record types; T
// selects the meaning.
type Record struct {
	T string `json:"t"`

	// Dataset fields.
	Name   string `json:"name,omitempty"`
	Path   string `json:"path,omitempty"`
	Format string `json:"format,omitempty"`

	// Job identity and request (recSubmit carries the original POST body).
	ID  string          `json:"id,omitempty"`
	Req json.RawMessage `json:"req,omitempty"`

	// State transition fields.
	State  string `json:"state,omitempty"`
	Reason string `json:"reason,omitempty"`
	Err    string `json:"err,omitempty"`

	// Session fingerprints (recRunning).
	CRC        string `json:"crc,omitempty"`
	SessionKey string `json:"skey,omitempty"`
	Branches   int    `json:"branches,omitempty"`

	// Checkpoint fields (recCkpt): cumulative over residue + [0, W).
	W       int   `json:"w,omitempty"`
	Cliques int64 `json:"cliques,omitempty"`
	MaxSize int   `json:"max,omitempty"`

	// Terminal stats, opaque to the journal (the service owns the schema).
	Stats json.RawMessage `json:"stats,omitempty"`
}

// Ckpt is one durable branch-progress checkpoint: the cumulative clique
// count and max clique size over the residue plus branch positions [0, W).
type Ckpt struct {
	Cliques int64
	MaxSize int
}

// JobReplay is the replayed state of one journaled job.
type JobReplay struct {
	ID         string
	Req        json.RawMessage
	State      string
	Reason     string
	Err        string
	CRC        string
	SessionKey string
	Branches   int
	// Ckpts maps watermark W to the cumulative prefix totals at W. Every
	// durable checkpoint is retained (not just the latest) because a
	// streaming client may resume from any marker it received, and the
	// resumed run's stats must be seeded with the prefix totals at exactly
	// that cursor.
	Ckpts map[int]Ckpt
	// Watermark is the highest checkpointed W (0 = none).
	Watermark int
	Stats     json.RawMessage
}

// Terminal reports whether the replayed job had reached a terminal state.
func (j *JobReplay) Terminal() bool {
	switch j.State {
	case "done", "stopped", "failed":
		return true
	}
	return false
}

// DatasetReplay is one replayed dataset registration.
type DatasetReplay struct {
	Name   string
	Path   string
	Format string
}

// Replay is the state reconstructed from the journal's segments. The same
// structure doubles as the journal's live-state tracker: every append is
// applied to it, so segment rotation can write a compacted snapshot.
type Replay struct {
	Datasets []DatasetReplay
	Jobs     map[string]*JobReplay
	// Order preserves submission order (job IDs) for deterministic resume.
	Order []string
}

func newReplay() *Replay {
	return &Replay{Jobs: make(map[string]*JobReplay)}
}

// apply folds one record into the replay state.
func (r *Replay) apply(rec *Record) error {
	switch rec.T {
	case recDataset:
		for i := range r.Datasets {
			if r.Datasets[i].Name == rec.Name {
				r.Datasets[i] = DatasetReplay{Name: rec.Name, Path: rec.Path, Format: rec.Format}
				return nil
			}
		}
		r.Datasets = append(r.Datasets, DatasetReplay{Name: rec.Name, Path: rec.Path, Format: rec.Format})
	case recDatasetRemove:
		for i := range r.Datasets {
			if r.Datasets[i].Name == rec.Name {
				r.Datasets = append(r.Datasets[:i], r.Datasets[i+1:]...)
				break
			}
		}
	case recSubmit:
		if _, ok := r.Jobs[rec.ID]; !ok {
			r.Order = append(r.Order, rec.ID)
		}
		r.Jobs[rec.ID] = &JobReplay{ID: rec.ID, Req: rec.Req, State: "queued", Ckpts: make(map[int]Ckpt)}
	case recRunning:
		j, ok := r.Jobs[rec.ID]
		if !ok {
			return fmt.Errorf("journal: running record for unknown job %s", rec.ID)
		}
		if j.Terminal() {
			// A terminal state is final: a late record from a run that
			// another daemon already concluded must not revive the job.
			return nil
		}
		j.State = "running"
		j.CRC, j.SessionKey, j.Branches = rec.CRC, rec.SessionKey, rec.Branches
	case recCkpt:
		j, ok := r.Jobs[rec.ID]
		if !ok {
			return fmt.Errorf("journal: checkpoint for unknown job %s", rec.ID)
		}
		if j.Terminal() {
			return nil
		}
		j.Ckpts[rec.W] = Ckpt{Cliques: rec.Cliques, MaxSize: rec.MaxSize}
		if rec.W > j.Watermark {
			j.Watermark = rec.W
		}
	case recTerminal:
		j, ok := r.Jobs[rec.ID]
		if !ok {
			return fmt.Errorf("journal: terminal record for unknown job %s", rec.ID)
		}
		j.State, j.Reason, j.Err, j.Stats = rec.State, rec.Reason, rec.Err, rec.Stats
	default:
		return fmt.Errorf("journal: unknown record type %q", rec.T)
	}
	return nil
}

// snapshot renders the live state as the minimal record sequence that
// reconstructs it: every dataset, then every non-terminal job (submit,
// running fingerprints, all retained checkpoints). Terminal jobs are
// dropped — compaction is where finished history ages out of the journal.
func (r *Replay) snapshot() []Record {
	var recs []Record
	for _, d := range r.Datasets {
		recs = append(recs, Record{T: recDataset, Name: d.Name, Path: d.Path, Format: d.Format})
	}
	for _, id := range r.Order {
		j := r.Jobs[id]
		if j == nil || j.Terminal() {
			continue
		}
		recs = append(recs, Record{T: recSubmit, ID: j.ID, Req: j.Req})
		if j.State == "running" || j.CRC != "" {
			recs = append(recs, Record{T: recRunning, ID: j.ID, CRC: j.CRC, SessionKey: j.SessionKey, Branches: j.Branches})
		}
		ws := make([]int, 0, len(j.Ckpts))
		for w := range j.Ckpts {
			ws = append(ws, w)
		}
		sort.Ints(ws)
		for _, w := range ws {
			ck := j.Ckpts[w]
			recs = append(recs, Record{T: recCkpt, ID: j.ID, W: w, Cliques: ck.Cliques, MaxSize: ck.MaxSize})
		}
	}
	return recs
}

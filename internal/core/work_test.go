package core

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/graphmining/hbbmc/internal/dataset"
	"github.com/graphmining/hbbmc/internal/gen"
	"github.com/graphmining/hbbmc/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*work.golden.json files from one-worker runs")

const (
	workGoldenPath      = "testdata/work.golden.json"
	queryWorkGoldenPath = "testdata/query_work.golden.json"
)

// raceSkipped are the stand-ins TestWorkGolden leaves out under the race
// detector, where they take three quarters of its time; the non-race run
// covers all 16.
var raceSkipped = map[string]bool{"DG": true, "SK": true, "CN": true, "OR": true}

// workConfigs are the golden file's two configurations: the paper's
// HBBMC++ and RRef (BK_Ref with graph reduction), the reference config of
// the benchmark suite.
var workConfigs = []struct {
	name string
	opts Options
}{
	{"HBBMC++", Defaults()},
	{"RRef", Options{Algorithm: BKRef, GR: true}},
}

// workRow is one golden row: the branch counters and the work counters of
// one complete count of one stand-in under one configuration.
type workRow struct {
	Graph             string `json:"graph"`
	Config            string `json:"config"`
	Cliques           int64  `json:"cliques"`
	Calls             int64  `json:"calls"`
	VertexCalls       int64  `json:"vertex_calls"`
	EdgeCalls         int64  `json:"edge_calls"`
	TopBranches       int64  `json:"top_branches"`
	PlexBranches      int64  `json:"plex_branches"`
	EarlyTerminations int64  `json:"early_terminations"`
	ETCliques         int64  `json:"et_cliques"`
	MaxCliqueSize     int    `json:"max_clique_size"`
	UniverseEntries   int64  `json:"universe_entries"`
	UniverseBits      int64  `json:"universe_bits"`
	PivotWords        int64  `json:"pivot_words"`
}

func workRowOf(name, config string, st *Stats) workRow {
	return workRow{name, config, st.Cliques, st.Calls, st.VertexCalls, st.EdgeCalls, st.TopBranches,
		st.PlexBranches, st.EarlyTerminations, st.ETCliques, st.MaxCliqueSize,
		st.UniverseEntries, st.UniverseBits, st.PivotWords}
}

// TestWorkGolden pins the counters of a one-worker count of every stand-in
// under HBBMC++ and RRef to testdata/work.golden.json, so a change in the
// work the engine does shows up in the diff. A second pass at two workers
// with a visitor must report the same rows. go test -run TestWorkGolden
// -update rewrites the file.
func TestWorkGolden(t *testing.T) {
	var want []workRow
	if !*updateGolden {
		data, err := os.ReadFile(workGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	wantOf := make(map[[2]string]workRow, len(want))
	for _, r := range want {
		wantOf[[2]string{r.Graph, r.Config}] = r
	}
	var got []workRow
	ctx := context.Background()
	for _, spec := range dataset.All() {
		if raceEnabled && raceSkipped[spec.Name] {
			continue
		}
		g := spec.Build()
		for _, cfg := range workConfigs {
			s, err := NewSession(g, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := s.CountWith(ctx, QueryOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			row := workRowOf(spec.Name, cfg.name, st)
			got = append(got, row)
			if *updateGolden {
				continue
			}
			if w, ok := wantOf[[2]string{spec.Name, cfg.name}]; !ok {
				t.Errorf("%s/%s: no golden row", spec.Name, cfg.name)
			} else if row != w {
				t.Errorf("%s/%s: counters\n got %+v\nwant %+v", spec.Name, cfg.name, row, w)
			}
			st, err = s.EnumerateWith(ctx, QueryOptions{Workers: 2}, func([]int32) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			if par := workRowOf(spec.Name, cfg.name, st); par != row {
				t.Errorf("%s/%s: two workers with a visitor\n got %+v\nwant %+v", spec.Name, cfg.name, par, row)
			}
		}
	}
	if !*updateGolden {
		return
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(workGoldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// workOf is the work part of a run's Stats.
func workOf(st *Stats) [3]int64 {
	return [3]int64{st.UniverseEntries, st.UniverseBits, st.PivotWords}
}

// TestWorkCountersDeterministic checks that the work counters of a complete
// run depend only on the query: enumerate, count, top_k and kclique_count
// report the same counters at one and two workers, with and without a
// visitor, under ordered release and BranchDone, and summed over branch ranges
// that partition the schedule. The configurations reach every counted scan:
// the word kernel and the generic masked path, BK_Rcd's masked double scan,
// the edge recursion of a deeper switch, and the vertex-oriented top level.
func TestWorkCountersDeterministic(t *testing.T) {
	g := gen.NoisyCliques(400, 40, 9, 900, 11)
	ctx := context.Background()
	visit := func([]int32) bool { return true }
	for _, opts := range []Options{
		Defaults(),
		{Algorithm: BKRef, GR: true},
		{Algorithm: HBBMC, ET: 3, Inner: InnerRcd},
		{Algorithm: HBBMC, ET: 2, SwitchDepth: 2},
		{Algorithm: BKFac, ET: 3},
	} {
		s, err := NewSession(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, base, err := s.CountWith(ctx, QueryOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := workOf(base)
		if want[0] == 0 || want[1] == 0 || want[2] == 0 {
			t.Fatalf("%s: work counters %v, want all non-zero", opts.Algorithm, want)
		}
		check := func(label string, st *Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%s: %v", opts.Algorithm, label, err)
			}
			if got := workOf(st); got != want {
				t.Errorf("%s/%s: work counters %v, one-worker count %v", opts.Algorithm, label, got, want)
			}
		}
		for _, w := range []int{1, 2} {
			_, st, err := s.CountWith(ctx, QueryOptions{Workers: w})
			check(fmt.Sprintf("count/w%d", w), st, err)
			st, err = s.EnumerateWith(ctx, QueryOptions{Workers: w}, visit)
			check(fmt.Sprintf("enumerate/w%d", w), st, err)
			_, st, err = s.TopK(ctx, 5, QueryOptions{Workers: w})
			check(fmt.Sprintf("top_k/w%d", w), st, err)
		}
		st, err := s.EnumerateWith(ctx, QueryOptions{Workers: 2, BranchDone: func(int, int, int64, int) {}}, visit)
		check("ordered", st, err)
		done := func(lo, hi int, cliques int64, maxSize int) {}
		st, err = s.EnumerateWith(ctx, QueryOptions{Workers: 2, BranchDone: done}, visit)
		check("branch_done", st, err)
		n := s.NumTopBranches()
		sum := &Stats{}
		for _, r := range [][2]int{{0, n / 3}, {n / 3, n / 2}, {n / 2, n}} {
			st, err := s.EnumerateWith(ctx, QueryOptions{Workers: 2, BranchLo: r[0], BranchHi: r[1]}, visit)
			if err != nil {
				t.Fatal(err)
			}
			MergeStats(sum, st)
		}
		check("ranges", sum, nil)

		_, kc, err := s.CountKCliques(ctx, 4, QueryOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, kc2, err := s.CountKCliques(ctx, 4, QueryOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if workOf(kc) != workOf(kc2) {
			t.Errorf("%s/kclique_count: work counters %v at one worker, %v at two", opts.Algorithm, workOf(kc), workOf(kc2))
		}
	}
}

// queryWorkRow is one row of testdata/query_work.golden.json: the counters
// of one complete one-worker query, with the branch-and-bound and k-clique
// counters of max_clique and kclique_count.
type queryWorkRow struct {
	workRow
	Query            string `json:"query"`
	BnBCalls         int64  `json:"bnb_calls"`
	BnBPrunes        int64  `json:"bnb_prunes"`
	IncumbentUpdates int64  `json:"incumbent_updates"`
	KCliques         int64  `json:"k_cliques"`
}

// noisyGraph names the small graph of the whole-graph rows.
const noisyGraph = "noisy"

// queryWorkCases reach every top-level kernel of max_clique and
// kclique_count: HBBMC++'s edge max_clique, and its kclique_count on the
// edge kernel or, where GR removed vertices, on the source-graph basis;
// RRef's vertex max_clique; the edge kclique_count of HBBMC++ without GR
// on every stand-in; and BKPivot's whole-graph count and max_clique, on a
// graph small enough for one whole-graph branch.
var queryWorkCases = []struct {
	config  string
	opts    Options
	graph   string // noisyGraph, or "" for the 16 stand-ins
	queries []string
}{
	{"HBBMC++", Defaults(), "", []string{"max_clique", "kclique_count_4"}},
	{"RRef", Options{Algorithm: BKRef, GR: true}, "", []string{"max_clique"}},
	{"HBBMC++noGR", Options{Algorithm: HBBMC, ET: 3}, "", []string{"kclique_count_4"}},
	{"BKPivot", Options{Algorithm: BKPivot}, noisyGraph, []string{"count", "max_clique"}},
}

// runWorkQuery runs one query of queryWorkCases on one worker. One worker
// makes max_clique deterministic: it walks the raw ordering against one
// incumbent.
func runWorkQuery(s *Session, query string) (*Stats, error) {
	ctx, q := context.Background(), QueryOptions{Workers: 1}
	var st *Stats
	var err error
	switch query {
	case "count":
		_, st, err = s.CountWith(ctx, q)
	case "max_clique":
		_, st, err = s.MaxClique(ctx, q)
	case "kclique_count_4":
		_, st, err = s.CountKCliques(ctx, 4, q)
	default:
		err = fmt.Errorf("unknown query %q", query)
	}
	return st, err
}

// TestQueryWorkGolden pins the counters of one-worker max_clique and
// kclique_count queries (and of BKPivot's whole-graph count) to
// testdata/query_work.golden.json, as TestWorkGolden does for count, so a
// change in the work of their kernels shows up in the diff. go test -run
// TestQueryWorkGolden -update rewrites the file.
func TestQueryWorkGolden(t *testing.T) {
	type key struct{ graph, config, query string }
	want := map[key]queryWorkRow{}
	if !*updateGolden {
		data, err := os.ReadFile(queryWorkGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		var rows []queryWorkRow
		if err := json.Unmarshal(data, &rows); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			want[key{r.Graph, r.Config, r.Query}] = r
		}
	}
	type namedGraph struct {
		name string
		g    *graph.Graph
	}
	var standIns []namedGraph
	for _, spec := range dataset.All() {
		if raceEnabled && raceSkipped[spec.Name] {
			continue
		}
		standIns = append(standIns, namedGraph{spec.Name, spec.Build()})
	}
	noisy := []namedGraph{{noisyGraph, gen.NoisyCliques(400, 40, 9, 900, 11)}}
	var got []queryWorkRow
	for _, c := range queryWorkCases {
		graphs := standIns
		if c.graph == noisyGraph {
			graphs = noisy
		}
		for _, ng := range graphs {
			s, err := NewSession(ng.g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, query := range c.queries {
				st, err := runWorkQuery(s, query)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", ng.name, c.config, query, err)
				}
				row := queryWorkRow{workRowOf(ng.name, c.config, st), query,
					st.BnBCalls, st.BnBPrunes, st.IncumbentUpdates, st.KCliques}
				got = append(got, row)
				if *updateGolden {
					continue
				}
				if w, ok := want[key{ng.name, c.config, query}]; !ok {
					t.Errorf("%s/%s/%s: no golden row", ng.name, c.config, query)
				} else if row != w {
					t.Errorf("%s/%s/%s: counters\n got %+v\nwant %+v", ng.name, c.config, query, row, w)
				}
			}
		}
	}
	if !*updateGolden {
		return
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(queryWorkGoldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Command mce enumerates the maximal cliques of a graph — or, with one of
// the query flags, answers a different clique workload on the same engine.
//
// Usage:
//
//	mce -in graph.txt [-format auto] [-algo hbbmc] [-et 3] [-gr]
//	    [-d 1] [-edgeorder truss] [-inner pivot] [-out cliques.txt] [-quiet]
//	    [-workers 1] [-timeout 0] [-maxcliques 0]
//	    [-save graph.hbg] [-cache] [-json]
//	    [-maxclique | -topk K | -kcliques K]
//
// -json replaces the prose summary on stderr with one machine-readable JSON
// line (durations in nanoseconds, full engine statistics including the
// work counters, the session's memory estimate). It is printed on the
// early-stop exits too, so scripts consuming it still see the partial
// run's numbers.
//
// Query flags (mutually exclusive; none = enumerate every maximal clique):
// -maxclique solves the exact maximum-clique problem and prints the single
// witness clique; -topk K prints the K largest maximal cliques, largest
// first; -kcliques K prints the number of k-vertex cliques (not only the
// maximal ones). All three run on the same cached preprocessing and honour
// -workers and -timeout; -maxcliques applies to plain enumeration only.
//
// The input format is auto-detected by default: SNAP/plain edge lists
// ("u v" per line, '#'/'%' comments), DIMACS clique files, MatrixMarket
// coordinate files, METIS adjacency (by .metis/.graph extension) and .hbg
// binary CSR snapshots, each optionally gzip-compressed. Text formats parse
// on all cores. -save writes the parsed graph as a .hbg snapshot; -cache
// keeps a <input>.hbg sidecar up to date automatically so repeat runs skip
// parsing entirely.
//
// Each maximal clique is printed as one line of vertex ids; -quiet
// suppresses clique output and reports statistics only. -workers 0
// enumerates on all cores (-workers N on N); parallel runs report cliques
// in nondeterministic order.
//
// -timeout bounds the wall-clock time of the enumeration (e.g. -timeout
// 30s; 0 = unlimited) and -maxcliques stops after that many cliques
// (0 = unlimited); both still print the cliques found and the partial
// statistics. The exit status distinguishes the outcomes: 0 = complete,
// 1 = error, 2 = usage, 3 = stopped by -maxcliques, 4 = stopped by
// -timeout.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
)

// Exit codes: early stops requested via -maxcliques/-timeout are reported
// distinctly from real errors so scripts can tell a truncated result from a
// failed one.
const (
	exitError    = 1
	exitUsage    = 2
	exitStopped  = 3
	exitDeadline = 4
)

func main() {
	var (
		in         = flag.String("in", "", "input graph file (required)")
		format     = flag.String("format", "auto", "input format: auto|edgelist|dimacs|mtx|metis|hbg")
		save       = flag.String("save", "", "write the parsed graph as a binary .hbg snapshot to this file")
		cache      = flag.Bool("cache", false, "maintain a <input>.hbg sidecar snapshot and load it when fresh")
		algo       = flag.String("algo", "hbbmc", "algorithm: "+hbbmc.AlgorithmChoices())
		et         = flag.Int("et", 3, "early-termination t-plex threshold (0 disables)")
		gr         = flag.Bool("gr", true, "apply graph reduction")
		depth      = flag.Int("d", 1, "hybrid switch depth (HBBMC only)")
		edgeOrder  = flag.String("edgeorder", "truss", "edge ordering: "+hbbmc.EdgeOrderChoices())
		inner      = flag.String("inner", "pivot", "hybrid inner recursion: "+hbbmc.InnerChoices())
		out        = flag.String("out", "", "write cliques to this file (default stdout)")
		quiet      = flag.Bool("quiet", false, "suppress clique output, print statistics only")
		profile    = flag.Bool("profile", false, "print the graph's structural profile (δ, τ, ρ, h)")
		workers    = flag.Int("workers", 1, "worker goroutines (1 = sequential, 0 = all cores)")
		timeout    = flag.Duration("timeout", 0, "stop the enumeration after this wall-clock time, keeping partial results (0 = unlimited)")
		maxCliques = flag.Int64("maxcliques", 0, "stop after this many maximal cliques (0 = unlimited)")
		jsonOut    = flag.Bool("json", false, "print the run summary as one JSON line on stderr instead of prose, with the full statistics")
		maxClique  = flag.Bool("maxclique", false, "solve the exact maximum-clique problem instead of enumerating")
		topK       = flag.Int("topk", 0, "print only the k largest maximal cliques, largest first (0 = disabled)")
		kCliques   = flag.Int("kcliques", 0, "count k-vertex cliques for this k instead of enumerating (0 = disabled)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(exitUsage)
	}
	queryFlags := 0
	for _, set := range []bool{*maxClique, *topK != 0, *kCliques != 0} {
		if set {
			queryFlags++
		}
	}
	if queryFlags > 1 {
		fmt.Fprintln(os.Stderr, "mce: -maxclique, -topk and -kcliques are mutually exclusive")
		os.Exit(exitUsage)
	}
	if *topK < 0 || *kCliques < 0 {
		fmt.Fprintln(os.Stderr, "mce: -topk and -kcliques need a positive k")
		os.Exit(exitUsage)
	}

	g, err := load(*in, *format, *cache)
	if err != nil {
		fatal(err)
	}
	if *save != "" {
		if err := g.SaveBinaryFile(*save); err != nil {
			fatal(err)
		}
	}
	if *profile {
		p := hbbmc.ProfileGraph(g)
		fmt.Printf("n=%d m=%d δ=%d τ=%d ρ=%.2f h=%d triangles=%d condition(δ≥max{3,τ+3lnρ/ln3})=%v\n",
			p.N, p.M, p.Delta, p.Tau, p.Rho, p.HIndex, p.Triangles, p.HybridConditionHolds())
	}

	opts, err := buildOptions(*algo, *et, *gr, *depth, *edgeOrder, *inner)
	if err != nil {
		fatal(err)
	}

	// Clique output goes through one buffered writer that is explicitly
	// flushed (and the file closed) before every exit path, including the
	// -maxcliques/-timeout early exits: os.Exit skips deferred flushes, so
	// relying on defer would truncate buffered output mid-line on the
	// exit-code-3/4 paths. closeOutput is idempotent; a flush or close
	// failure is a real error (partial results on disk) and exits 1.
	var (
		w       *bufio.Writer
		outFile *os.File
	)
	if !*quiet {
		dst := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			outFile = f
			dst = f
		}
		w = bufio.NewWriter(dst)
	}
	closeOutput := func() {
		if w != nil {
			if err := w.Flush(); err != nil {
				w, outFile = nil, nil
				fatal(fmt.Errorf("flushing clique output: %w", err))
			}
			w = nil
		}
		if outFile != nil {
			if err := outFile.Close(); err != nil {
				outFile = nil
				fatal(fmt.Errorf("closing %s: %w", *out, err))
			}
			outFile = nil
		}
	}

	// Fold the flags into the session options: -workers 0 means all cores
	// (the legacy CLI contract), and the context carries the -timeout
	// deadline into the cooperative cancellation checks.
	if *workers == 0 {
		opts.Workers = hbbmc.UseAllCores
	} else {
		opts.Workers = *workers
	}
	opts.MaxCliques = *maxCliques

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	sess, err := hbbmc.NewSession(g, opts)
	if err != nil {
		fatal(err)
	}
	writeClique := func(c []int32) {
		if w == nil {
			return
		}
		for i, v := range c {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprint(w, v)
		}
		fmt.Fprintln(w)
	}

	// Dispatch on the query flags. Every path leaves its results in the
	// output buffer and its counters in stats; the shared reporting and
	// exit-code handling below applies uniformly.
	var (
		stats   *hbbmc.Stats
		runErr  error
		summary string
	)
	// A query that fails validation returns no stats at all; bail before the
	// per-mode summaries dereference them.
	mustStats := func() {
		if stats == nil {
			closeOutput()
			fatal(runErr)
		}
	}
	switch {
	case *maxClique:
		var clique []int32
		clique, stats, runErr = sess.MaxClique(ctx, hbbmc.QueryOptions{})
		mustStats()
		writeClique(clique)
		summary = fmt.Sprintf("maximum clique of size %d (BnB: %d calls, %d prunes, %d incumbent updates)",
			len(clique), stats.BnBCalls, stats.BnBPrunes, stats.IncumbentUpdates)
	case *topK > 0:
		var cliques [][]int32
		cliques, stats, runErr = sess.TopK(ctx, *topK, hbbmc.QueryOptions{})
		mustStats()
		for _, c := range cliques {
			writeClique(c)
		}
		summary = fmt.Sprintf("top %d of %d maximal cliques (ω=%d)", len(cliques), stats.Cliques, stats.MaxCliqueSize)
	case *kCliques > 0:
		var count int64
		count, stats, runErr = sess.CountKCliques(ctx, *kCliques, hbbmc.QueryOptions{})
		mustStats()
		if w != nil {
			fmt.Fprintln(w, count)
		}
		summary = fmt.Sprintf("%d cliques of %d vertices", count, *kCliques)
	default:
		stats, runErr = sess.Enumerate(ctx, func(c []int32) bool {
			writeClique(c)
			return true
		})
		summary = fmt.Sprintf("%d maximal cliques (ω=%d)", stats.Cliques, stats.MaxCliqueSize)
	}
	// The enumeration has returned: all clique output is written to the
	// buffer. Flush and close it before reporting anything, so every exit
	// path below — error (1), -maxcliques (3), -timeout (4) and success —
	// leaves complete lines on disk.
	closeOutput()
	if code, _ := stopStatus(runErr); runErr != nil && code == 0 {
		fatal(runErr) // a real failure, not a requested early stop
	}
	if *jsonOut {
		// One machine-readable line replaces the prose summary; it is
		// printed before the early-stop exit so the -maxcliques/-timeout
		// paths (exit 3/4) report their partial run too.
		line := jsonSummary{
			Algorithm:    *algo,
			Summary:      summary,
			TotalNS:      time.Since(start),
			PrepNS:       sess.PrepTime(),
			SessionBytes: sess.MemoryEstimate(),
			Stats:        stats,
		}
		if _, reason := stopStatus(runErr); reason != "" {
			line.Stopped = reason
		}
		if err := json.NewEncoder(os.Stderr).Encode(line); err != nil {
			fatal(err)
		}
	} else {
		fmt.Fprintf(os.Stderr, "%s: %s in %v (preprocessing %v, enumeration %v); %d branches, %d calls, ET %d/%d, workers=%d\n",
			*algo, summary, time.Since(start).Round(time.Millisecond),
			sess.PrepTime().Round(time.Millisecond), stats.EnumTime.Round(time.Millisecond),
			stats.TopBranches, stats.Calls, stats.EarlyTerminations, stats.PlexBranches, stats.Workers)
		if stats.ParallelFallback != "" {
			fmt.Fprintf(os.Stderr, "mce: parallel run fell back to the sequential driver: %s\n", stats.ParallelFallback)
		}
	}
	if code, reason := stopStatus(runErr); code != 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "mce: stopped by %s; results above are partial\n", reason)
		}
		os.Exit(code)
	}
}

// jsonSummary is the -json run report: one line of JSON on stderr. Durations
// are nanoseconds; Stats carries the engine's full counter set, work
// counters included. Stopped names the flag ("-maxcliques", "-timeout")
// that ended the run early, empty for a complete run.
type jsonSummary struct {
	Algorithm    string        `json:"algorithm"`
	Summary      string        `json:"summary"`
	TotalNS      time.Duration `json:"total_ns"`
	PrepNS       time.Duration `json:"prep_ns"`
	SessionBytes int64         `json:"session_bytes"`
	Stats        *hbbmc.Stats  `json:"stats"`
	Stopped      string        `json:"stopped,omitempty"`
}

// stopStatus classifies an early-stop error into its exit code and a
// human-readable reason; complete runs return (0, "").
func stopStatus(runErr error) (int, string) {
	switch {
	case errors.Is(runErr, context.DeadlineExceeded):
		return exitDeadline, "-timeout"
	case errors.Is(runErr, hbbmc.ErrStopped):
		return exitStopped, "-maxcliques"
	}
	return 0, ""
}

func buildOptions(algo string, et int, gr bool, depth int, edgeOrder, inner string) (hbbmc.Options, error) {
	a, err := hbbmc.ParseAlgorithm(algo)
	if err != nil {
		return hbbmc.Options{}, err
	}
	eo, err := hbbmc.ParseEdgeOrder(edgeOrder)
	if err != nil {
		return hbbmc.Options{}, err
	}
	in, err := hbbmc.ParseInnerAlgorithm(inner)
	if err != nil {
		return hbbmc.Options{}, err
	}
	return hbbmc.Options{
		Algorithm:   a,
		ET:          et,
		GR:          gr,
		SwitchDepth: depth,
		EdgeOrder:   eo,
		Inner:       in,
	}, nil
}

// load parses the input in any supported format, optionally through the
// .hbg sidecar cache. Parsing always uses all cores — the -workers flag
// governs the enumeration only.
func load(path, format string, cache bool) (*hbbmc.Graph, error) {
	f, err := hbbmc.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	opts := hbbmc.LoadOptions{Format: f}
	if cache {
		g, _, err := hbbmc.LoadFileCached(path, opts)
		return g, err
	}
	return hbbmc.LoadFile(path, opts)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mce:", err)
	os.Exit(exitError)
}

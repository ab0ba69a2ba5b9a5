package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/service"
)

// serveGraphs are the stand-ins serve-mixed registers; each is small
// enough that a job takes tens of milliseconds, so a pass holds many jobs.
var serveGraphs = []string{"NA", "FB", "WE", "WK", "ST", "DB", "YO"}

const (
	serveClients = 2
	serveK       = 4 // k of the kclique_count jobs
)

// serve is serve-mixed: an in-process mced server with two closed-loop
// clients that replay the job mix; one replay is a pass. Each pass takes
// the jobs in a new order drawn from the seed, so that a run's medians
// average over many orders rather than depend on one.
type serve struct {
	*server
	inputs []*input
	jobs   []serveJob
	order  *rand.Rand // draws each pass's job order from the seed
}

// server is an in-process mced server (journal on, two worker slots) behind
// loopback HTTP, with the client that drives it.
type server struct {
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	client *http.Client
	base   string

	// Per-job service timings of the current traced pass.
	mu                                  sync.Mutex
	submit, waits, firsts, drains, poll []float64
	hits, streamed                      int64
}

type serveJob struct {
	in      *input
	typ     string
	rref    bool
	workers int
	k       int
	body    []byte
}

// jobMix returns one pass's jobs. Every graph gets the same ten jobs, so
// the work of a pass does not depend on the seed: four streamed
// enumerations (one on an RRef session, one with two workers), two counts
// (one with two workers, one on RRef for every other graph), one each of
// max_clique, top_k and kclique_count, and one more of those three in turn.
// Over the seven graphs that is 40% enumerate, 20% count, 40%
// max_clique/top_k/kclique_count, with 24% of the enumerate and count jobs
// on RRef sessions and a third of them asking for two workers.
func jobMix(inputs []*input) []serveJob {
	var jobs []serveJob
	extra := []string{"max_clique", "top_k", "kclique_count"}
	for i, in := range inputs {
		add := func(typ string, rref bool, workers int) {
			jobs = append(jobs, newJob(in, typ, rref, workers, serveK))
		}
		add("enumerate", false, 1)
		add("enumerate", false, 1)
		add("enumerate", false, 2)
		add("enumerate", true, 1)
		add("count", false, 2)
		add("count", i%2 == 1, 1)
		add("max_clique", false, 1)
		add("top_k", false, 1)
		add("kclique_count", false, 1)
		add(extra[i%len(extra)], false, 1)
	}
	return jobs
}

// newJob builds a job and its POST /v1/jobs body; k is the k of a
// kclique_count job. RRef jobs name BKRef with early termination off; graph
// reduction is the server's default.
func newJob(in *input, typ string, rref bool, workers, k int) serveJob {
	req := map[string]any{"dataset": in.name, "type": typ, "workers": workers}
	switch typ {
	case "top_k":
		req["k"] = topK
	case "kclique_count":
		req["k"] = k
	}
	if rref {
		req["algorithm"], req["et"] = "bkref", 0
	}
	body, _ := json.Marshal(req) // a map of strings and ints always marshals
	return serveJob{in: in, typ: typ, rref: rref, workers: workers, k: k, body: body}
}

func (s *serve) setup(b *bench, dir string, p *pass) error {
	var err error
	if s.inputs, err = makeInputs(dir, b.seed, serveGraphs, ".hbg"); err != nil {
		return err
	}
	s.jobs = jobMix(s.inputs)
	s.order = rand.New(rand.NewPCG(uint64(b.seed), 0x5e12e))
	one, two := map[string]time.Duration{}, map[string]time.Duration{}
	for _, in := range s.inputs {
		if err := directChecks(b, p, in, one, two); err != nil {
			return err
		}
	}
	if p.tr != nil {
		speedups(p, one, two, one["enumerate"]-one["count"])
	}
	if s.server, err = startServer(filepath.Join(dir, "journal"), s.inputs); err != nil {
		return err
	}
	// Build every session the mix uses: one count job per graph and
	// algorithm, on the server's own registry.
	for _, in := range s.inputs {
		for _, rref := range []bool{false, true} {
			job := newJob(in, "count", rref, 1, 0)
			s.runJob(b, nil, &job)
		}
	}
	return nil
}

// startServer opens a server journaling into dir, serves it on a loopback
// port and registers inputs with it.
func startServer(dir string, inputs []*input) (*server, error) {
	srv, err := service.Open(service.Config{
		WorkerSlots: serveClients,
		// Two closed-loop clients can never queue a job for long; a generous
		// wait keeps a slow host from turning a wait into a 429.
		QueueWait:  30 * time.Second,
		JournalDir: dir,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true,
	}}
	for _, in := range inputs {
		body, _ := json.Marshal(map[string]string{"name": in.name, "path": in.path})
		var info struct {
			Error string `json:"error"`
		}
		status, err := s.do(http.MethodPost, "/v1/datasets", body, &info)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("HTTP %d: %s", status, info.Error)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("registering %s: %w", in.name, err)
		}
	}
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.served
	_ = s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
}

// report writes the service-layer metrics of a traced pass of jobs jobs
// into p and resets the timings for the next pass.
func (s *server) report(p *pass, jobs int) {
	p.layer["service.submit_ms"] = median(s.submit)
	p.layer["service.queue_wait_ms"] = mean(s.waits)
	p.layer["service.first_line_ms"] = median(s.firsts)
	p.layer["service.drain_ms"] = median(s.drains)
	p.layer["service.poll_ms"] = median(s.poll)
	p.layer["service.session_hits"] = float64(s.hits)
	p.layer["service.jobs"] = float64(jobs)
	p.layer["service.stream_mb"] = float64(s.streamed) / 1e6
	s.submit, s.waits, s.firsts, s.drains, s.poll = nil, nil, nil, nil, nil
	s.hits, s.streamed = 0, 0
}

// probeService serves one pass's worth of suite-hbbmc's queries through a
// fresh server over the same inputs, one job at a time, so that the traced
// run of every workload reports the service layer's timings for its own
// queries.
func probeService(b *bench, dir string, jobs []serveJob) (*pass, error) {
	var inputs []*input
	for _, j := range jobs {
		if !slices.Contains(inputs, j.in) {
			inputs = append(inputs, j.in)
		}
	}
	s, err := startServer(dir, inputs)
	if err != nil {
		return nil, err
	}
	defer s.close()
	p := newPass(b, "probe", b.tr)
	t := time.Now()
	for i := range jobs {
		s.runJob(b, p, &jobs[i])
	}
	p.finish(t, time.Now())
	s.report(p, len(jobs))
	return p, nil
}

// directChecks loads one served graph and checks every query type the mix
// runs on it through direct session calls, against the references, adding
// the query times to one. Traced set-ups also time the preprocessing layers
// and repeat the queries at two workers, adding those times to two.
func directChecks(b *bench, p *pass, in *input, one, two map[string]time.Duration) error {
	sessions, err := loadSessions(p, in, suiteOptions(false), suiteOptions(true))
	if err != nil {
		return err
	}
	for i, sess := range sessions {
		types := queryTypes
		if rref := i == 1; rref {
			types = queryTypes[:2]
		}
		sumTimes(one, runQueries(b, p, p.root, in, sess, 1, serveK, types, false, ""))
		if p.tr != nil {
			sumTimes(two, runQueries(b, p, p.root, in, sess, 2, serveK, types, true, "@2w"))
		}
	}
	return nil
}

// loadSessions loads in and builds one session per options for it; traced
// set-ups also time the preprocessing layers beside the session builds.
func loadSessions(p *pass, in *input, opts ...hbbmc.Options) ([]*hbbmc.Session, error) {
	t0 := time.Now()
	node := p.tr.open(p.group, "graph "+in.name, p.root, t0)
	g, err := hbbmc.LoadFile(in.path, hbbmc.LoadOptions{})
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", in.name, err)
	}
	p.tr.record(p.group, "graph.load", node, t0, time.Now(), false)
	var sessions []*hbbmc.Session
	for _, o := range opts {
		t := time.Now()
		sess, err := hbbmc.NewSession(g, o)
		if err != nil {
			return nil, fmt.Errorf("session for %s: %w", in.name, err)
		}
		p.tr.record(p.group, "core.session", node, t, time.Now(), false)
		sessions = append(sessions, sess)
	}
	if p.tr != nil {
		timeLayers(p, node, g)
	}
	p.tr.close(node, time.Now())
	return sessions, nil
}

func (s *serve) close() {
	if s.server != nil {
		s.server.close()
		s.server = nil
	}
}

func (s *serve) pass(b *bench, p *pass) error {
	s.order.Shuffle(len(s.jobs), func(i, j int) { s.jobs[i], s.jobs[j] = s.jobs[j], s.jobs[i] })
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; int(i) < len(s.jobs); i = next.Add(1) - 1 {
				s.runJob(b, p, &s.jobs[i])
			}
		}()
	}
	wg.Wait()
	if p.tr != nil {
		s.report(p, len(s.jobs))
	}
	return nil
}

// jobView is the part of a JobView the client reads.
type jobView struct {
	ID            string       `json:"id"`
	State         string       `json:"state"`
	Error         string       `json:"error"`
	SessionCached bool         `json:"session_cached"`
	QueueWaitMS   float64      `json:"queue_wait_ms"`
	MaxClique     []int32      `json:"max_clique"`
	Stats         *hbbmc.Stats `json:"stats"`
}

// trailer is the last line of a clique stream.
type trailer struct {
	State string       `json:"state"`
	Error string       `json:"error"`
	Stats *hbbmc.Stats `json:"stats"`
	Trace *traceView   `json:"trace"`
}

type traceView struct {
	Spans []struct {
		Name  string `json:"name"`
		Start int64  `json:"start_unix_ns"`
		Dur   int64  `json:"duration_ns"`
	} `json:"spans"`
}

// runJob submits one job, reads its answer (the clique stream, or the
// terminal job view) and checks it. p is nil for set-up jobs, which are
// checked but not timed.
func (s *server) runJob(b *bench, p *pass, j *serveJob) {
	what := fmt.Sprintf("%s %s job (rref=%v, %d workers)", j.in.name, j.typ, j.rref, j.workers)
	t0 := time.Now()
	var view jobView
	status, err := s.do(http.MethodPost, "/v1/jobs", j.body, &view)
	t1 := time.Now()
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", status, view.Error)
	}
	if err != nil {
		b.check(what, err)
		return
	}
	var tr trailer
	var stats *hbbmc.Stats
	var first time.Time
	var n int64
	streamed := j.typ == "enumerate" || j.typ == "top_k"
	if streamed {
		var cliques [][]int32
		tl := newTally(j.in.mix)
		visit := tl.add
		if j.typ == "top_k" {
			visit = func(c []int32) bool {
				cliques = append(cliques, slices.Clone(c))
				return tl.add(c)
			}
		}
		n, err = s.stream(view.ID, visit, &tr)
		first = tl.first
		stats = tr.Stats
		if err == nil && tr.State != "done" {
			err = fmt.Errorf("job ended %s: %s", tr.State, tr.Error)
		}
		if err == nil && j.typ == "enumerate" {
			err = tl.check(j.in.ref)
		}
		if err == nil && j.typ == "top_k" {
			err = checkCliques(j.in, cliques, j.in.ref.topSizes(topK))
		}
	} else {
		var done jobView
		status, err = s.do(http.MethodGet, "/v1/jobs/"+view.ID+"?wait=60s", nil, &done)
		stats = done.Stats
		if err == nil && (status != http.StatusOK || done.State != "done" || stats == nil) {
			err = fmt.Errorf("job ended %s (HTTP %d): %s", done.State, status, done.Error)
		}
		if err == nil {
			err = checkAnswer(j, stats, done.MaxClique)
		}
	}
	t3 := time.Now()
	if !b.check(what, err) || p == nil {
		return
	}
	if p.tr != nil && !streamed {
		var tv traceView
		if _, err := s.do(http.MethodGet, "/v1/jobs/"+view.ID+"/trace", nil, &tv); err == nil {
			tr.Trace = &tv
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p.ops++
	p.lat = append(p.lat, ms(t3.Sub(t0)))
	if j.typ == "enumerate" {
		p.first += first.Sub(t0)
	}
	if p.tr == nil {
		return
	}
	if view.SessionCached {
		s.hits++
	}
	s.submit = append(s.submit, ms(t1.Sub(t0)))
	s.waits = append(s.waits, view.QueueWaitMS)
	node := p.tr.record(p.group, "service.job", p.root, t0, t3, false)
	submit := p.tr.record(p.group, "service.submit", node, t0, t1, false)
	var answer int32
	if streamed {
		s.streamed += n
		answer = p.tr.record(p.group, "service.stream", node, t1, t3, false)
	} else {
		s.poll = append(s.poll, ms(t3.Sub(t1)))
		answer = p.tr.record(p.group, "service.poll", node, t1, t3, false)
	}
	if j.typ == "enumerate" {
		s.firsts = append(s.firsts, ms(first.Sub(t1)))
	}
	if stats != nil {
		addStats(p, stats)
	}
	if tr.Trace != nil {
		// The server's spans: session_acquire and queued happen while the
		// submit request is open, run, checkpoint and drain while the
		// answer is read.
		for _, sp := range tr.Trace.Spans {
			name, parent := "service."+sp.Name, answer
			switch sp.Name {
			case "session_acquire", "queued":
				parent = submit
			case "run":
				name = "core." + j.typ
			case "drain":
				s.drains = append(s.drains, float64(sp.Dur)/1e6)
			}
			start := time.Unix(0, sp.Start)
			p.tr.record(p.group, name, parent, start, start.Add(time.Duration(sp.Dur)), false)
		}
	}
}

// checkAnswer checks the answer of a count, max_clique or kclique_count job.
func checkAnswer(j *serveJob, st *hbbmc.Stats, maxClique []int32) error {
	ref := j.in.ref
	switch j.typ {
	case "count":
		if st.Cliques != ref.cliques {
			return fmt.Errorf("counted %d maximal cliques, want %d", st.Cliques, ref.cliques)
		}
	case "max_clique":
		return checkCliques(j.in, [][]int32{maxClique}, []int{ref.omega()})
	case "kclique_count":
		if st.KCliques != ref.kcliques(j.k) {
			return fmt.Errorf("counted %d %d-cliques, want %d", st.KCliques, j.k, ref.kcliques(j.k))
		}
	}
	return nil
}

// do sends one request and decodes its JSON answer into out.
func (s *server) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(out)
	// Read to the end, so that the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %w", method, path, resp.StatusCode, err)
	}
	return resp.StatusCode, nil
}

// stream reads a job's NDJSON clique stream, handing each clique to visit
// and the trailer to tr, and returns the bytes read. Clique lines are parsed by hand, without
// reflection or allocation; only the trailer goes through encoding/json.
func (s *server) stream(id string, visit hbbmc.Visitor, tr *trailer) (int64, error) {
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/cliques")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	r := bufio.NewReaderSize(resp.Body, 1<<16)
	var n int64
	var clique []int32
	var long []byte
	sawTrailer := false
	for {
		line, err := r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			long = append(long[:0], line...)
			for errors.Is(err, bufio.ErrBufferFull) {
				line, err = r.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		n += int64(len(line))
		if len(line) > 0 {
			switch {
			case bytes.HasPrefix(line, []byte(`{"c":[`)):
				if clique, err = parseClique(line[len(`{"c":[`):], clique[:0]); err != nil {
					return n, err
				}
				visit(clique)
			case bytes.HasPrefix(line, []byte(`{"done":`)):
				if err := json.Unmarshal(line, tr); err != nil {
					return n, fmt.Errorf("stream trailer: %w", err)
				}
				sawTrailer = true
			case bytes.HasPrefix(line, []byte(`{"ckpt":`)):
			default:
				return n, fmt.Errorf("unexpected stream line %q", line)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
	}
	if !sawTrailer {
		return n, errors.New("stream ended without a trailer")
	}
	return n, nil
}

// parseClique parses the vertex ids of a clique line after its opening
// bracket, up to the closing one.
func parseClique(b []byte, dst []int32) ([]int32, error) {
	v, digits := int32(0), 0
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			v = v*10 + int32(c-'0')
			digits++
		case (c == ',' || c == ']') && digits > 0:
			dst = append(dst, v)
			v, digits = 0, 0
			if c == ']' {
				return dst, nil
			}
		default:
			return dst, fmt.Errorf("malformed clique line %q", b)
		}
	}
	return dst, fmt.Errorf("unterminated clique line %q", b)
}

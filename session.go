package hbbmc

import (
	"github.com/graphmining/hbbmc/internal/core"
)

// Session caches the preprocessing of one (graph, options) pair — graph
// reduction, the truss/degeneracy/degree ordering and the triangle
// incidence — and serves any number of enumeration queries against it
// without repeating that O(δm) work. This is the hot path for a service
// answering many queries over the same graph: build one Session, then call
// Count, Enumerate, Collect or range over Cliques as often as needed.
//
// A Session is immutable after NewSession and safe for concurrent queries.
// Every query takes a context.Context, honoured cooperatively at top-branch
// granularity; a cancelled or deadline-exceeded query returns the partial
// Stats with an error wrapping ctx.Err(). Queries report zero
// Stats.OrderingTime — the preprocessing was paid once in NewSession and is
// available as Session.PrepTime.
//
//	sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
//	if err != nil { ... }
//	for c := range sess.Cliques(ctx) {
//		... // one maximal clique; copy the slice to retain it
//	}
//	n, stats, err := sess.Count(ctx) // reuses the cached preprocessing
type Session = core.Session

// Visitor receives one maximal clique per call. The slice is reused between
// calls — copy it to retain it. Returning false stops the enumeration; the
// run then finishes with ErrStopped and makes no further Visitor calls.
type Visitor = core.Visitor

// ErrStopped is returned (use errors.Is) when an enumeration ended early
// because a Visitor returned false or Options.MaxCliques was reached. The
// accompanying Stats cover the work done up to the stop. Context
// cancellations and deadlines are reported as errors wrapping ctx.Err()
// instead.
var ErrStopped = core.ErrStopped

// UseAllCores is the Options.Workers value that selects one worker per
// available core (GOMAXPROCS).
const UseAllCores = core.UseAllCores

// QueryOptions override, for a single Session query, the per-run knobs of
// the session's Options (worker count, clique budget) without
// rebuilding the cached preprocessing. The zero value inherits every
// session setting; see Session.EnumerateWith and
// Session.CountWith. This is the mechanism a service uses to serve
// per-request limits from one shared Session.
type QueryOptions = core.QueryOptions

// NoCliqueLimit is the QueryOptions.MaxCliques value that removes a
// session-level clique budget for one query.
const NoCliqueLimit = core.NoCliqueLimit

// NewSession validates opts and computes the preprocessing for g once:
// graph reduction (when Options.GR is set), the top-level vertex or edge
// ordering, and the triangle incidence of the edge-oriented frameworks.
// See Session for the query methods; Session.MemoryEstimate reports the
// bytes the cached artifacts retain (cache budgets evict on it).
func NewSession(g *Graph, opts Options) (*Session, error) {
	return core.NewSession(g, opts)
}

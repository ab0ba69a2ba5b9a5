package graph

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Parallel edge-list ingestion. The input is split into byte-range shards at
// line boundaries; every shard is parsed on its own goroutine with the
// allocation-free scanID scanner into packed (u,v) edge keys, the per-shard
// key slices are sorted in parallel and merged, and the CSR is materialised
// directly from the sorted unique keys. The result is bit-for-bit identical
// to the Builder/FromEdges path: edge ids are the lexicographic rank of the
// normalised (min,max) pair in both.

// minShardBytes keeps tiny inputs on a single goroutine; below this size the
// fan-out costs more than the parse.
const minShardBytes = 64 << 10

// ParseEdgeList parses a whitespace-separated "u v" edge list held in
// memory, using up to workers goroutines (0 = all cores). It accepts the
// same dialect as LoadEdgeList — '#'/'%' comments, blank lines, a third
// column ignored — except that vertex ids must be plain digit runs (no '+'
// sign) and field separators must be ASCII whitespace. Lines may be
// arbitrarily long.
func ParseEdgeList(data []byte, workers int) (*Graph, error) {
	g, _, err := parseEdgeBytes(data, workers, 0, 0)
	return g, err
}

// shardResult is one shard's parse output: packed edge keys, the largest
// vertex id, the number of lines consumed and of data lines among them,
// and the shard-local error with its shard-local line number (made global
// once all shards finish).
type shardResult struct {
	keys    []uint64
	maxID   int32
	lines   int
	entries int64
	err     error
	errLine int
}

// parseEdgeBytes is the shared core of ParseEdgeList and the MatrixMarket
// body parser: base is the id origin (0 or 1; 1-based inputs reject id 0)
// and minN a lower bound on the vertex count (declared header sizes). The
// second result is the number of data lines parsed — entries before
// self-loop dropping and deduplication — which MatrixMarket checks against
// its declared nnz.
func parseEdgeBytes(data []byte, workers, base, minN int) (*Graph, int64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := len(data)/minShardBytes + 1; workers > max {
		workers = max
	}
	bounds := shardBounds(data, workers)
	results := make([]shardResult, len(bounds)-1)
	var wg sync.WaitGroup
	for i := 0; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = parseShard(data[bounds[i]:bounds[i+1]], base)
			slices.Sort(results[i].keys)
		}(i)
	}
	wg.Wait()

	line := 0
	maxID := int32(-1)
	entries := int64(0)
	lists := make([][]uint64, 0, len(results))
	for _, res := range results {
		if res.err != nil {
			return nil, 0, fmt.Errorf("graph: line %d: %v", line+res.errLine, res.err)
		}
		line += res.lines
		entries += res.entries
		if res.maxID > maxID {
			maxID = res.maxID
		}
		if len(res.keys) > 0 {
			lists = append(lists, res.keys)
		}
	}
	n := int(maxID) + 1
	if n < minN {
		n = minN
	}
	keys := slices.Compact(mergeKeyLists(lists))
	if len(keys) > math.MaxInt32 {
		return nil, 0, fmt.Errorf("graph: %d edges exceed the int32 edge-id space", len(keys))
	}
	return FromSortedKeys(n, keys), entries, nil
}

// shardBounds cuts data into at most shards byte ranges, each ending just
// past a '\n' (the last ends at len(data)). Ranges may be empty.
func shardBounds(data []byte, shards int) []int {
	bounds := make([]int, 1, shards+1)
	for i := 1; i < shards; i++ {
		pos := len(data) * i / shards
		if pos <= bounds[len(bounds)-1] {
			continue
		}
		nl := bytes.IndexByte(data[pos:], '\n')
		if nl < 0 {
			break
		}
		bounds = append(bounds, pos+nl+1)
	}
	return append(bounds, len(data))
}

// parseShard parses one byte range of complete lines into packed edge keys.
func parseShard(data []byte, base int) shardResult {
	res := shardResult{maxID: -1}
	fail := func(format string, args ...any) shardResult {
		res.err = fmt.Errorf(format, args...)
		res.errLine = res.lines
		return res
	}
	for i := 0; i < len(data); {
		var line []byte
		if nl := bytes.IndexByte(data[i:], '\n'); nl >= 0 {
			line = data[i : i+nl]
			i += nl + 1
		} else {
			line = data[i:]
			i = len(data)
		}
		res.lines++

		j := 0
		for j < len(line) && isSpace(line[j]) {
			j++
		}
		if j == len(line) || line[j] == '#' || line[j] == '%' {
			continue
		}
		u, j, ok := scanID(line, j)
		if !ok || (j < len(line) && !isSpace(line[j])) {
			return fail("bad vertex id in %q", clip(line))
		}
		for j < len(line) && isSpace(line[j]) {
			j++
		}
		v, j, ok := scanID(line, j)
		if !ok || (j < len(line) && !isSpace(line[j])) {
			return fail("expected two vertex ids, got %q", clip(line))
		}
		// Anything after the second id (weights, timestamps) is ignored,
		// matching LoadEdgeList.
		res.entries++
		if base == 1 {
			if u == 0 || v == 0 {
				return fail("vertex id 0 in 1-based input %q", clip(line))
			}
			u, v = u-1, v-1
		}
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if v > res.maxID {
			res.maxID = v
		}
		res.keys = append(res.keys, uint64(u)<<32|uint64(uint32(v)))
	}
	return res
}

// clip bounds a line echoed in an error message.
func clip(line []byte) string {
	const max = 60
	if len(line) > max {
		return string(line[:max]) + "..."
	}
	return string(line)
}

// mergeKeyLists merges sorted key slices into one sorted slice by pairwise
// parallel merge rounds.
func mergeKeyLists(lists [][]uint64) []uint64 {
	for len(lists) > 1 {
		next := make([][]uint64, 0, (len(lists)+1)/2)
		var wg sync.WaitGroup
		for i := 0; i+1 < len(lists); i += 2 {
			dst := make([]uint64, len(lists[i])+len(lists[i+1]))
			next = append(next, dst)
			wg.Add(1)
			go func(a, b, dst []uint64) {
				defer wg.Done()
				mergeSorted(a, b, dst)
			}(lists[i], lists[i+1], dst)
		}
		if len(lists)%2 == 1 {
			next = append(next, lists[len(lists)-1])
		}
		wg.Wait()
		lists = next
	}
	if len(lists) == 0 {
		return nil
	}
	return lists[0]
}

func mergeSorted(a, b, dst []uint64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// FromSortedKeys materialises the CSR from sorted unique packed edge keys
// (u<<32|v with u < v < n). Scattering in global lexicographic key order
// leaves every adjacency slice sorted — for vertex x, edges (u,x) with u<x
// all precede edges (x,w) and both runs arrive in ascending order — so no
// per-vertex sort is needed, and edge id i is the i-th key, exactly the rank
// FromEdges assigns. The keys are not checked: a caller that already holds
// them in order (a parser's merge, a relabelled subgraph) skips FromEdges'
// copy, sort and deduplication.
func FromSortedKeys(n int, keys []uint64) *Graph {
	m := len(keys)
	g := &Graph{
		offsets: make([]int64, n+1),
		adj:     make([]int32, 2*m),
		eids:    make([]int32, 2*m),
		srcs:    make([]int32, m),
		dsts:    make([]int32, m),
	}
	deg := make([]int32, n)
	for _, k := range keys {
		deg[k>>32]++
		deg[uint32(k)]++
	}
	for v := 0; v < n; v++ {
		g.offsets[v+1] = g.offsets[v] + int64(deg[v])
	}
	cur := make([]int64, n)
	copy(cur, g.offsets[:n])
	for i, k := range keys {
		u, v := int32(k>>32), int32(uint32(k))
		g.srcs[i], g.dsts[i] = u, v
		g.adj[cur[u]], g.eids[cur[u]] = v, int32(i)
		cur[u]++
		g.adj[cur[v]], g.eids[cur[v]] = u, int32(i)
		cur[v]++
	}
	return g
}

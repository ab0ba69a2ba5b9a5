package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randomEdgeText renders a random multigraph (duplicates, both orientations,
// self-loops, comments, padding, a weight column) as edge-list text.
func randomEdgeText(rng *rand.Rand, n, lines int) []byte {
	var buf bytes.Buffer
	for i := 0; i < lines; i++ {
		switch rng.Intn(10) {
		case 0:
			fmt.Fprintf(&buf, "# comment %d\n", i)
		case 1:
			buf.WriteString("\n")
		case 2:
			fmt.Fprintf(&buf, "  %% indented comment\n")
		case 3:
			fmt.Fprintf(&buf, "\t%d\t %d \t0.%d\n", rng.Intn(n), rng.Intn(n), rng.Intn(100))
		default:
			fmt.Fprintf(&buf, "%d %d\n", rng.Intn(n), rng.Intn(n))
		}
	}
	return buf.Bytes()
}

// TestParseEdgeListMatchesSequential is the core property: the parallel
// parser and the line-by-line loader produce identical CSR representations,
// at every worker count, with and without a trailing newline.
func TestParseEdgeListMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		text := randomEdgeText(rng, 1+rng.Intn(300), rng.Intn(2000))
		if trial%2 == 0 {
			text = bytes.TrimSuffix(text, []byte("\n"))
		}
		want, err := LoadEdgeList(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("trial %d: sequential parse failed: %v", trial, err)
		}
		for _, workers := range []int{1, 2, 3, 8, 17} {
			got, err := ParseEdgeList(text, workers)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d workers %d: parallel parse differs from sequential", trial, workers)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
		}
	}
}

func TestParseEdgeListEmptyAndTiny(t *testing.T) {
	for _, text := range []string{"", "\n", "# only comments\n% more\n", "0 0\n"} {
		g, err := ParseEdgeList([]byte(text), 4)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if g.NumEdges() != 0 {
			t.Fatalf("%q: expected no edges, got %d", text, g.NumEdges())
		}
	}
	g, err := ParseEdgeList([]byte("5 5\n5 6"), 4)
	if err != nil || g.NumVertices() != 7 || g.NumEdges() != 1 {
		t.Fatalf("self-loop + edge: g=%v err=%v", g, err)
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	cases := []struct {
		in   string
		line int // expected global line number in the message
	}{
		{"0 1\n0 x\n", 2},
		{"0 1\n2\n", 2},
		{"-1 2\n", 1},
		{"0 1\n1 2\n3 99999999999\n", 3},
		{"12x 3\n", 1},
		{"1 2y 3\n", 1},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			_, err := ParseEdgeList([]byte(c.in), workers)
			if err == nil {
				t.Fatalf("%q workers %d: expected error", c.in, workers)
			}
			if want := fmt.Sprintf("line %d", c.line); !strings.Contains(err.Error(), want) {
				t.Fatalf("%q: error %q does not name %s", c.in, err, want)
			}
		}
	}
}

// TestParseEdgeListLongLines is the regression test for the former 1 MiB
// bufio.Scanner cap: multi-MiB comment and padded edge lines must parse in
// both the sequential and the parallel parser.
func TestParseEdgeListLongLines(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("0 1\n")
	buf.WriteString("# " + strings.Repeat("x", 3<<20) + "\n")
	buf.WriteString("1 2" + strings.Repeat(" ", 2<<20) + "7\n") // huge padded weight column
	buf.WriteString("2 3\n")
	text := buf.Bytes()

	seq, err := LoadEdgeList(bytes.NewReader(text))
	if err != nil {
		t.Fatalf("LoadEdgeList still fails on long lines: %v", err)
	}
	if seq.NumEdges() != 3 {
		t.Fatalf("expected 3 edges, got %d", seq.NumEdges())
	}
	par, err := ParseEdgeList(text, 4)
	if err != nil {
		t.Fatalf("ParseEdgeList fails on long lines: %v", err)
	}
	if !par.Equal(seq) {
		t.Fatal("long-line parse differs between sequential and parallel")
	}
}

func TestShardBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		data := randomEdgeText(rng, 50, rng.Intn(200))
		for _, shards := range []int{1, 2, 5, 16} {
			bounds := shardBounds(data, shards)
			if bounds[0] != 0 || bounds[len(bounds)-1] != len(data) {
				t.Fatalf("bounds %v do not cover [0,%d]", bounds, len(data))
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] < bounds[i-1] {
					t.Fatalf("bounds %v not monotone", bounds)
				}
				// Every interior boundary sits just past a newline.
				if i < len(bounds)-1 && bounds[i] > 0 && data[bounds[i]-1] != '\n' {
					t.Fatalf("boundary %d at %d not after a newline", i, bounds[i])
				}
			}
		}
	}
}

// TestFromSortedKeysMatchesFromEdges locks the invariant the parallel
// builder and the binary loader rely on: scattering lexicographically
// sorted unique edges yields FromEdges's exact representation.
func TestFromSortedKeysMatchesFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(60)
		var edges []Edge
		for i := 0; i < rng.Intn(4*n); i++ {
			edges = append(edges, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		want, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		var keys []uint64
		for _, e := range edges {
			u, v := e.U, e.V
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			k := uint64(u)<<32 | uint64(uint32(v))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sortKeys(keys)
		got := FromSortedKeys(n, keys)
		if !got.Equal(want) {
			t.Fatalf("trial %d: FromSortedKeys differs from FromEdges", trial)
		}
	}
}

func TestMergeKeyLists(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		var all []uint64
		lists := make([][]uint64, rng.Intn(6))
		for i := range lists {
			for j := 0; j < rng.Intn(40); j++ {
				k := uint64(rng.Intn(100))
				lists[i] = append(lists[i], k)
				all = append(all, k)
			}
			sortKeys(lists[i])
		}
		sortKeys(all)
		got := mergeKeyLists(lists)
		if len(got) != len(all) {
			t.Fatalf("merge lost elements: %d vs %d", len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("merge misordered at %d", i)
			}
		}
	}
}

func sortKeys(keys []uint64) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

package main

import (
	"context"
	"maps"
	"slices"
	"testing"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/dataset"
)

func TestParseClique(t *testing.T) {
	got, err := parseClique([]byte("12,0,7]}\n"), nil)
	if err != nil || !slices.Equal(got, []int32{12, 0, 7}) {
		t.Fatalf("parseClique = %v, %v", got, err)
	}
	for _, bad := range []string{"1,,2]}", "1,2", "1,-2]}", "]}"} {
		if _, err := parseClique([]byte(bad), nil); err == nil {
			t.Errorf("parseClique(%q) accepted a malformed line", bad)
		}
	}
}

// TestReferencesHoldForEverySeed relabels one stand-in by two seeds and
// checks both enumerations against its fixed reference answers.
func TestReferencesHoldForEverySeed(t *testing.T) {
	spec, _ := dataset.ByName("NA")
	for _, seed := range []int64{1, 2} {
		in, err := relabel("NA", spec.Build(), seed)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := hbbmc.NewSession(in.g, hbbmc.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		tl := newTally(in.mix)
		if _, err := sess.Enumerate(context.Background(), tl.add); err != nil {
			t.Fatal(err)
		}
		if err := tl.check(references["NA"]); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestJobMix(t *testing.T) {
	var inputs []*input
	for _, name := range serveGraphs {
		inputs = append(inputs, &input{name: name})
	}
	types := map[string]int{}
	for _, j := range jobMix(inputs) {
		types[j.typ]++
	}
	want := map[string]int{"enumerate": 28, "count": 14, "max_clique": 10, "top_k": 9, "kclique_count": 9}
	if !maps.Equal(types, want) {
		t.Errorf("job mix %v, want %v", types, want)
	}
}

package main

import (
	"context"
	"fmt"

	hbbmc "github.com/graphmining/hbbmc"
	"github.com/graphmining/hbbmc/internal/dataset"
)

// printReferences recomputes the reference answers of every stand-in and
// prints them as the references table below. The maximal cliques are
// enumerated by HBBMC++ and by RRef, whose answers must agree; the k-clique
// counts by Session.CountKCliques and by the independent EBBkC lister.
func printReferences() error {
	fmt.Println("var references = map[string]reference{")
	for _, spec := range dataset.All() {
		g := spec.Build()
		mix := make([]uint64, g.NumVertices())
		for v := range mix {
			mix[v] = splitmix(uint64(v))
		}
		var tallies [2]*tally
		for i, opts := range []hbbmc.Options{suiteOptions(false), suiteOptions(true)} {
			sess, err := hbbmc.NewSession(g, opts)
			if err != nil {
				return err
			}
			tallies[i] = newTally(mix)
			if _, err := sess.Enumerate(context.Background(), tallies[i].add); err != nil {
				return err
			}
		}
		t := tallies[0]
		if t.n != tallies[1].n || t.sum != tallies[1].sum || t.hist != tallies[1].hist {
			return fmt.Errorf("%s: HBBMC++ and RRef disagree", spec.Name)
		}
		sess, err := hbbmc.NewSession(g, hbbmc.DefaultOptions())
		if err != nil {
			return err
		}
		var k [2]int64
		for i, size := range []int{4, 5} {
			n, _, err := sess.CountKCliques(context.Background(), size, hbbmc.QueryOptions{})
			if err != nil {
				return err
			}
			listed, err := hbbmc.ListKCliques(g, size, nil)
			if err != nil {
				return err
			}
			if n != listed {
				return fmt.Errorf("%s: %d-clique counts disagree: %d vs %d", spec.Name, size, n, listed)
			}
			k[i] = n
		}
		fmt.Printf("\t%q: {cliques: %d, sum: %#016x, k4: %d, k5: %d, hist: map[int]int64{", spec.Name, t.n, t.sum, k[0], k[1])
		sep := ""
		for s, n := range t.hist {
			if n > 0 {
				fmt.Printf("%s%d: %d", sep, s, n)
				sep = ", "
			}
		}
		fmt.Println("}},")
	}
	fmt.Println("}")
	return nil
}

// references are the answers printReferences computed for the stand-ins
// with their original vertex ids; the seed's relabelling leaves them intact.
var references = map[string]reference{
	"NA": {cliques: 29288, sum: 0xe07a9fcb018c4f54, k4: 43776, k5: 64298, hist: map[int]int64{2: 20443, 3: 6636, 4: 703, 5: 261, 6: 426, 7: 348, 8: 254, 9: 112, 10: 30, 11: 35, 12: 40}},
	"FB": {cliques: 25824, sum: 0xf4d435dda273afef, k4: 33073, k5: 38359, hist: map[int]int64{2: 21589, 3: 3472, 4: 337, 5: 159, 6: 89, 7: 26, 8: 4, 10: 148}},
	"WE": {cliques: 12294, sum: 0x60311e96e56335d4, k4: 59280, k5: 377142, hist: map[int]int64{2: 12122, 3: 146, 6: 25, 36: 1}},
	"WK": {cliques: 21965, sum: 0x780ab2e259e14b70, k4: 50659, k5: 72358, hist: map[int]int64{2: 18228, 3: 590, 4: 86, 5: 453, 6: 1008, 7: 881, 8: 498, 9: 132, 10: 29, 11: 12, 12: 48}},
	"SH": {cliques: 49263, sum: 0x0034e8593e52c2ef, k4: 33833, k5: 39122, hist: map[int]int64{2: 43041, 3: 5373, 4: 392, 5: 188, 6: 80, 7: 29, 8: 10, 10: 150}},
	"ST": {cliques: 38208, sum: 0xe42406dece54fe94, k4: 69841, k5: 93915, hist: map[int]int64{2: 33013, 3: 1342, 4: 181, 5: 693, 6: 1206, 7: 971, 8: 427, 9: 300, 10: 16, 11: 4, 12: 55}},
	"DB": {cliques: 18976, sum: 0x614646a10bcc95c1, k4: 101893, k5: 664308, hist: map[int]int64{2: 18432, 3: 240, 4: 3, 7: 300, 40: 1}},
	"DE": {cliques: 110715, sum: 0x422c8cc24ba85bb7, k4: 107610, k5: 198318, hist: map[int]int64{2: 75302, 3: 29991, 4: 3781, 5: 901, 6: 340, 7: 152, 8: 59, 9: 49, 10: 19, 11: 16, 12: 6, 13: 3, 14: 94, 15: 2}},
	"DG": {cliques: 1075505, sum: 0x84f3fcdeca5a7bfb, k4: 1286393, k5: 8340310, hist: map[int]int64{2: 45505, 3: 1533, 4: 54, 5: 9, 6: 1, 7: 4, 8: 221, 9: 2543, 10: 10968, 11: 37185, 12: 94676, 13: 177506, 14: 238175, 15: 227687, 16: 149165, 17: 68387, 18: 17996, 19: 3359, 20: 484, 21: 45, 22: 2}},
	"YO": {cliques: 28049, sum: 0x3128366f0d70a742, k4: 9565, k5: 6807, hist: map[int]int64{2: 27519, 3: 190, 4: 24, 5: 57, 6: 42, 7: 196, 8: 1, 9: 20}},
	"PO": {cliques: 114266, sum: 0x52a6032e88b0dabd, k4: 76640, k5: 91783, hist: map[int]int64{2: 103051, 3: 9242, 4: 610, 5: 492, 6: 387, 7: 139, 8: 29, 9: 11, 10: 260, 11: 45}},
	"SK": {cliques: 442844, sum: 0x26cfc8ea100acf80, k4: 1041888, k5: 5026074, hist: map[int]int64{2: 59343, 3: 1603, 4: 35, 5: 8, 6: 71, 7: 1105, 8: 8527, 9: 31946, 10: 67830, 11: 91154, 12: 86036, 13: 54747, 14: 27128, 15: 10081, 16: 2539, 17: 522, 18: 105, 19: 63, 20: 1}},
	"CN": {cliques: 234968, sum: 0xcc0d142b27e39da7, k4: 682478, k5: 2823419, hist: map[int]int64{2: 47830, 3: 696, 4: 16, 5: 10, 6: 180, 7: 1772, 8: 10619, 9: 30637, 10: 49930, 11: 47965, 12: 29626, 13: 11663, 14: 3086, 15: 755, 16: 107, 17: 14, 18: 62}},
	"BA": {cliques: 84565, sum: 0x80260831d34c1219, k4: 76680, k5: 92836, hist: map[int]int64{2: 76918, 3: 2737, 4: 534, 5: 1658, 6: 1515, 7: 654, 8: 437, 9: 33, 10: 7, 11: 2, 12: 70}},
	"OR": {cliques: 1442062, sum: 0xb052479f859ec189, k4: 1733520, k5: 9863905, hist: map[int]int64{2: 149896, 3: 17249, 4: 1282, 5: 267, 6: 85, 7: 274, 8: 4105, 9: 30526, 10: 123603, 11: 271714, 12: 347130, 13: 274369, 14: 146695, 15: 56606, 16: 14809, 17: 2849, 18: 448, 19: 78, 20: 76, 21: 1}},
	"SO": {cliques: 90707, sum: 0x26e8cf803d20db44, k4: 48794, k5: 49404, hist: map[int]int64{2: 86883, 3: 2980, 4: 187, 5: 175, 6: 103, 7: 24, 8: 3, 9: 320, 10: 32}},
}

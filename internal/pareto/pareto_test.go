package pareto

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refSort is the oracle: a stable comparator sort on (Key, W, Tag), which
// yields the total order (Key, W, Tag, input index).
func refSort(b []Rec) {
	slices.SortStableFunc(b, func(x, y Rec) int {
		switch {
		case less(&x, &y):
			return -1
		case less(&y, &x):
			return 1
		}
		return 0
	})
}

// keyDraws are key distributions that stress different parts of the
// sort: spread and clustered floats (dense bins recurse), a tiny grid
// (long equal-key runs), signed zeros and subnormals, and mixed signs.
var keyDraws = map[string]func(r *rand.Rand) float64{
	"spread": func(r *rand.Rand) float64 { return 4.5e-10 + r.Float64()*3.5e-10 },
	"clustered": func(r *rand.Rand) float64 {
		if r.Intn(50) == 0 {
			return 1e-6 // one outlier stretches the range: every other key shares a bin
		}
		return 5e-10 + float64(r.Intn(1<<20))*1e-24
	},
	"grid": func(r *rand.Rand) float64 { return float64(r.Intn(4)) },
	"zeros": func(r *rand.Rand) float64 {
		return []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, -5e-324, 1}[r.Intn(6)]
	},
	"signed": func(r *rand.Rand) float64 { return r.NormFloat64() * 1e3 },
}

func randomRecs(r *rand.Rand, n int, key func(*rand.Rand) float64) []Rec {
	b := make([]Rec, n)
	for i := range b {
		b[i] = Rec{Key: key(r), W: float64(r.Intn(6)) * 40, Ref: int32(i), Tag: uint8(r.Intn(3))}
	}
	return b
}

// TestSortMatchesStableOracle checks Sort against the stable oracle
// record for record — Ref included, so the input-order tie rule is
// pinned — at sizes on both sides of the insertion cutoff, with one
// Sorter reused throughout as the DPs reuse theirs.
func TestSortMatchesStableOracle(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var s Sorter
	for name, key := range keyDraws {
		for _, n := range []int{0, 1, 2, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, 100, 300, 1000, 5000} {
			got := randomRecs(r, n, key)
			want := slices.Clone(got)
			refSort(want)
			s.Sort(got)
			for i := range got {
				// Compare bits: −0 and +0 are distinct records here.
				if math.Float64bits(got[i].Key) != math.Float64bits(want[i].Key) ||
					got[i].W != want[i].W || got[i].Ref != want[i].Ref || got[i].Tag != want[i].Tag {
					t.Fatalf("%s n=%d: record %d is %+v, want %+v", name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReduceMatchesOracle checks Reduce against an O(n²) dominance
// filter: exactly the non-dominated (Key, W) values survive, once each,
// as the first record in (Key, W, Tag, input) order carrying that value;
// widths ignored, the first record with the least Key survives alone.
func TestReduceMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var s Sorter
	for name, key := range keyDraws {
		for _, n := range []int{1, 7, insertionCutoff + 3, 400, 2000} {
			in := randomRecs(r, n, key)
			order := slices.Clone(in)
			refSort(order)
			var want []Rec
			for i, x := range order {
				kept := true
				for j, y := range order {
					if y.Key <= x.Key && y.W <= x.W && (y.Key < x.Key || y.W < x.W || j < i) {
						kept = false
						break
					}
				}
				if kept {
					want = append(want, x)
				}
			}
			first := in[slices.IndexFunc(in, func(x Rec) bool { return x.Key == order[0].Key })]
			if got := s.Reduce(slices.Clone(in), false); len(got) != 1 || got[0] != first {
				t.Fatalf("%s n=%d: width-blind Reduce kept %+v, want the first minimum %+v", name, n, got, first)
			}
			got := s.Reduce(in, true)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: front has %d records, want %d", name, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d: front record %d is %+v, want %+v", name, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEarliestTieSurvives pins the tie rule: among records with the same
// (Key, W, Tag) the earliest survives the front, whichever path sorts.
func TestEarliestTieSurvives(t *testing.T) {
	var s Sorter
	for _, n := range []int{3, insertionCutoff * 4} {
		b := make([]Rec, n)
		for i := range b {
			b[i] = Rec{Key: 2 + float64(i%7), W: 10 - float64(i%7), Ref: int32(i)}
		}
		b[n-1] = Rec{Key: 1, W: 1, Ref: int32(n - 1)}
		b[n-2] = Rec{Key: 1, W: 1, Ref: int32(n - 2)}
		b[n-3] = Rec{Key: math.Copysign(0, -1), W: 5, Tag: 1, Ref: int32(n - 3)}
		b[0] = Rec{Key: 0, W: 5, Tag: 1, Ref: 0}
		got := s.Reduce(b, true)
		if got[0].Ref != 0 || got[1].Ref != int32(n-2) {
			t.Fatalf("n=%d: front %+v, want the earliest of each tie (refs 0 and %d) first", n, got[:2], n-2)
		}
	}
}

// TestSortSteadyStateAllocs pins the zero-allocation contract once the
// scratch has grown.
func TestSortSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	src := randomRecs(r, 3000, keyDraws["clustered"])
	b := make([]Rec, len(src))
	var s Sorter
	allocs := testing.AllocsPerRun(20, func() {
		copy(b, src)
		s.Sort(b)
	})
	if allocs > 0 {
		t.Fatalf("steady-state sort allocates %.1f objects/run, want 0", allocs)
	}
}

// BenchmarkSort measures one front-solve-sized bucket of delays.
func BenchmarkSort(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	src := randomRecs(r, 300, keyDraws["spread"])
	buf := make([]Rec, len(src))
	var s Sorter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		s.Sort(buf)
	}
}

package dp

import (
	"math"
	"math/rand"
	"testing"
)

// dominates reports 3-D (or 2-D, width-blind) dominance of a over b.
func dominates(a, b option, threeD bool) bool {
	if a.c > b.c || a.d > b.d {
		return false
	}
	if threeD && a.w > b.w {
		return false
	}
	return true
}

// optKey is an option's value triple; in 2-D mode the width coordinate is
// collapsed so value identity matches the pruner's comparison semantics.
type optKey struct{ c, d, w float64 }

func keyOf(o option, threeD bool) optKey {
	k := optKey{c: o.c, d: o.d, w: o.w}
	if !threeD {
		k.w = 0
	}
	return k
}

// referenceFront is the O(n²) oracle: the set of distinct non-dominated
// value triples under the mode's dominance rule.
func referenceFront(opts []option, threeD bool) map[optKey]bool {
	front := make(map[optKey]bool)
	for _, o := range opts {
		dominated := false
		for _, p := range opts {
			if keyOf(p, threeD) != keyOf(o, threeD) && dominates(p, o, threeD) {
				dominated = true
				break
			}
		}
		if !dominated {
			front[keyOf(o, threeD)] = true
		}
	}
	return front
}

// checkPrune feeds the bucketed options through the pruner and verifies
// the kept set is exactly the Pareto-optimal value set, one representative
// per value, emitted in ascending (c, d, w) order.
func checkPrune(t *testing.T, buckets [][]option, threeD bool) {
	t.Helper()
	var all []option
	for bi, b := range buckets {
		for _, o := range b {
			if bi > 0 && o.c != b[0].c {
				t.Fatalf("test bug: bucket %d mixes c values", bi)
			}
			all = append(all, o)
		}
	}
	want := referenceFront(all, threeD)

	var p pruner
	p.reset(len(buckets))
	for bi, b := range buckets {
		for _, o := range b {
			p.add(bi, o)
		}
	}
	kept := p.pruneInto(nil, threeD)

	got := make(map[optKey]bool, len(kept))
	for _, o := range kept {
		k := keyOf(o, threeD)
		if got[k] {
			t.Fatalf("duplicate kept value %+v (threeD=%v)", k, threeD)
		}
		got[k] = true
	}
	if len(got) != len(want) {
		t.Fatalf("kept %d distinct values, want %d (threeD=%v)\nkept: %v\nwant: %v",
			len(got), len(want), threeD, got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing Pareto-optimal value %+v (threeD=%v)", k, threeD)
		}
	}
	for i := 1; i < len(kept); i++ {
		if cmpOpt(&kept[i-1], &kept[i], threeD) > 0 {
			t.Fatalf("kept output not sorted at %d: %+v > %+v", i, kept[i-1], kept[i])
		}
	}
	// Width preservation: 2-D pruning must not rewrite real widths.
	if !threeD {
		orig := make(map[[4]float64]int)
		for _, o := range all {
			orig[[4]float64{o.c, o.d, o.w, float64(o.act)}]++
		}
		for _, o := range kept {
			if orig[[4]float64{o.c, o.d, o.w, float64(o.act)}] == 0 {
				t.Fatalf("kept option %+v is not one of the inputs — width mutated?", o)
			}
		}
	}
}

// randomBuckets builds a bucketed option set the way the solver generates
// one: bucket 0 with arbitrary (c, d, w), buckets 1..K each pinned to a
// constant c, every option with a random scheme byte. Tie-heavy mode
// draws every coordinate from a tiny integer grid so duplicates, shared
// load classes and equal delays are common; otherwise coordinates sit on
// a 0.01 grid with some ±0 and subnormal values. Every fourth set has
// buckets of up to 160 options, past the repeater-bucket sort's
// insertion cutoff, so its radix path runs too.
func randomBuckets(rng *rand.Rand, tieHeavy bool) [][]option {
	draw := func() float64 {
		if tieHeavy {
			return float64(rng.Intn(4))
		}
		switch rng.Intn(16) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return 5e-324 * float64(1+rng.Intn(3)) // subnormals
		}
		return math.Round(rng.Float64()*1000) / 100
	}
	maxN := 12
	if rng.Intn(4) == 0 {
		maxN = 160
	}
	nb := 1 + rng.Intn(5)
	buckets := make([][]option, nb)
	n0 := rng.Intn(maxN)
	for i := 0; i < n0; i++ {
		buckets[0] = append(buckets[0], option{c: draw(), d: draw(), w: draw(), act: -1, next: int32(i), sch: uint8(rng.Intn(3))})
	}
	for bi := 1; bi < nb; bi++ {
		c := draw()
		nB := rng.Intn(maxN)
		for i := 0; i < nB; i++ {
			buckets[bi] = append(buckets[bi], option{c: c, d: draw(), w: draw(), act: int32(bi - 1), next: int32(i), sch: uint8(rng.Intn(3))})
		}
	}
	return buckets
}

// TestPruneProperty cross-checks the bucketed prune against the O(n²)
// dominance oracle on thousands of randomized bucket sets, in both modes,
// with and without tie-heavy inputs.
func TestPruneProperty(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < trials; trial++ {
		buckets := randomBuckets(rng, trial%2 == 0)
		checkPrune(t, buckets, true)
		checkPrune(t, buckets, false)
	}
}

// TestPruneTieRule pins which option represents an exact value tie in a
// repeater bucket: the lowest scheme byte, then the earliest generated.
// Bucket sizes straddle the sort's insertion cutoff.
func TestPruneTieRule(t *testing.T) {
	for _, n := range []int{6, 200} {
		var p pruner
		p.reset(2)
		// Filler options that the tied value (d=1, w=1) dominates.
		for i := 0; i < n; i++ {
			p.add(1, option{c: 5, d: 2 + float64(i%13), w: 3 + float64(i%5), act: 0, next: int32(100 + i)})
		}
		// Ties: scheme 1 generated first, then two plain copies.
		p.rb[0][n/3] = dwn{Key: 1, W: 1, Ref: 10, Tag: 1}
		p.rb[0][n/2] = dwn{Key: 1, W: 1, Ref: 11}
		p.rb[0][n-1] = dwn{Key: 1, W: 1, Ref: 12}
		// A −0 delay ties +0 by value; the earlier one survives.
		p.rb[0][0] = dwn{Key: math.Copysign(0, -1), W: 9, Ref: 20}
		p.rb[0][1] = dwn{Key: 0, W: 9, Ref: 21}
		kept := p.pruneInto(nil, true)
		if len(kept) != 2 {
			t.Fatalf("n=%d: kept %+v, want the two tie representatives", n, kept)
		}
		if kept[0].next != 20 || kept[1].next != 11 || kept[1].sch != 0 {
			t.Fatalf("n=%d: kept %+v, want refs 20 and 11 (plain, earliest)", n, kept)
		}
	}
}

// TestPruneUnsortedBucketZero covers the rounding-collision guard: bucket 0
// normally inherits sorted order from the downstream level, but the pruner
// must stay exact when it does not.
func TestPruneUnsortedBucketZero(t *testing.T) {
	buckets := [][]option{
		{
			{c: 3, d: 1, w: 2},
			{c: 1, d: 5, w: 1},
			{c: 2, d: 2, w: 9},
			{c: 1, d: 5, w: 1}, // duplicate
			{c: 3, d: 1, w: 2}, // duplicate
		},
		{{c: 2, d: 3, w: 4}, {c: 2, d: 1, w: 8}, {c: 2, d: 3, w: 2}},
	}
	checkPrune(t, buckets, true)
	checkPrune(t, buckets, false)
}

// FuzzPrune decodes arbitrary bytes into a bucketed option set and checks
// the pruner against the oracle — the fuzz rendering of TestPruneProperty.
func FuzzPrune(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}, uint8(3), false)
	f.Add([]byte{255, 1, 128, 7, 3, 3, 3, 3, 9, 0, 64, 2, 2, 2, 200, 90, 13, 5}, uint8(4), true)
	// A long input fills buckets past the sort's insertion cutoff.
	long := make([]byte, 3*256)
	for i := range long {
		long[i] = byte(i*37 + i/7)
	}
	f.Add(long, uint8(2), true)
	f.Add(long, uint8(1), false)
	f.Fuzz(func(t *testing.T, data []byte, nb uint8, threeD bool) {
		nbuckets := 1 + int(nb%5)
		buckets := make([][]option, nbuckets)
		bucketC := make([]float64, nbuckets)
		for bi := 1; bi < nbuckets; bi++ {
			bucketC[bi] = float64(bi * 7 % 5)
		}
		// Coordinates on a small grid so dominance ties are common; grid
		// value 7 reads as −0 (a delay) or a subnormal (a width).
		coord := func(b byte, odd float64) float64 {
			if b%8 == 7 {
				return odd
			}
			return float64(b % 8)
		}
		for i := 0; i+3 <= len(data) && i < 256*3; i += 3 {
			bi := int(data[i]) % nbuckets
			d := coord(data[i+1], math.Copysign(0, -1))
			w := coord(data[i+2], 5e-324)
			c := float64((int(data[i+1])*256 + int(data[i+2])) % 8)
			if bi > 0 {
				c = bucketC[bi]
			}
			sch := data[i] >> 6 % 3
			buckets[bi] = append(buckets[bi], option{c: c, d: d, w: w, act: int32(bi - 1), sch: sch})
		}
		checkPrune(t, buckets, threeD)
	})
}

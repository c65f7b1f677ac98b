package tree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/tech"
)

// siteKey is an option's value triple; widths ignored, w is collapsed so
// value identity matches the pruner's comparison.
type siteKey struct{ c, q, w float64 }

func siteKeyOf(o sopt, width bool) siteKey {
	k := siteKey{c: o.c, q: o.q, w: o.w}
	if !width {
		k.w = 0
	}
	return k
}

// siteOracle is the O(n²) dominance filter: the distinct non-dominated
// value triples of opts.
func siteOracle(opts []sopt, width bool) map[siteKey]bool {
	front := make(map[siteKey]bool)
	for _, o := range opts {
		ko := siteKeyOf(o, width)
		dominated := false
		for _, p := range opts {
			kp := siteKeyOf(p, width)
			if kp != ko && kp.c <= ko.c && kp.q >= ko.q && kp.w <= ko.w {
				dominated = true
				break
			}
		}
		if !dominated {
			front[ko] = true
		}
	}
	return front
}

// randomSite draws a buffer site: n unbuffered options, pruned the way
// the merge prune leaves them, and a short library. Required time grows
// with load, so many options survive the prune and the per-width buckets
// reach hundreds of records. Tie-heavy mode draws from small grids and
// zeroes Rs, so buffered options share loads and required times with
// unbuffered ones and with each other; otherwise some coordinates are ±0
// or subnormal.
func randomSite(rng *rand.Rand, s *Solver, n int, tieHeavy, width bool) *tech.Technology {
	odd := func(scale float64) float64 {
		switch rng.Intn(20) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return 5e-324 // subnormal
		}
		return rng.Float64() * scale
	}
	ts := &tech.Technology{Rs: 1e3, Co: 1e-15, Cp: 1e-15}
	if tieHeavy {
		ts.Rs = 0
	}
	s.cur = s.cur[:0]
	for i := 0; i < n; i++ {
		var c, q, w float64
		if tieHeavy {
			// Loads on the buffers' own Co·w grid, so unbuffered and
			// buffered options share loads too.
			k := rng.Intn(8)
			c = ts.Co * float64(10*k)
			q = float64(k+rng.Intn(3)) * 1e-10
			w = float64(rng.Intn(4) * 10)
		} else {
			x := rng.Float64()
			c = x * 1e-13
			q = x*1e-9 + odd(1e-11)
			w = odd(100)
		}
		s.cur = append(s.cur, sopt{c: c, q: q, w: w, buf: -1, kids: int32(i)})
	}
	s.cur = s.pruneS(s.cur, width)
	s.widths = s.widths[:0]
	for i, k := 0, 1+rng.Intn(6); i < k; i++ {
		s.widths = append(s.widths, float64(10*(i+1)))
	}
	return ts
}

// TestInsertBuffersMatchesOracle cross-checks the bucketed buffer-site
// prune against the O(n²) dominance oracle over the unbuffered options
// plus every buffered extension. Base sets reach a few hundred options,
// so the per-width buckets cross the bucket sort's insertion cutoff.
func TestInsertBuffersMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewSolver()
	trials := 300
	if testing.Short() {
		trials = 60
	}
	maxBase := 0
	for trial := 0; trial < trials; trial++ {
		tieHeavy := trial%3 == 0
		width := trial%2 == 0
		n := 1 + rng.Intn(400)
		ts := randomSite(rng, s, n, tieHeavy, width)
		base := append([]sopt(nil), s.cur...)
		all := append([]sopt(nil), base...)
		generated := make(map[sopt]bool)
		for _, b := range base {
			for wi, wb := range s.widths {
				o := sopt{
					c:    ts.Co * wb,
					q:    b.q - (ts.Rs*ts.Cp + ts.Rs/wb*b.c),
					w:    b.w + wb,
					buf:  int32(wi),
					kids: b.kids,
				}
				all = append(all, o)
				generated[o] = true
			}
		}
		want := siteOracle(all, width)

		maxBase = max(maxBase, len(base))
		s.insertBuffers(ts, width)
		got := make(map[siteKey]bool, len(s.cur))
		for i, o := range s.cur {
			k := siteKeyOf(o, width)
			if got[k] {
				t.Fatalf("trial %d: duplicate kept value %+v", trial, k)
			}
			got[k] = true
			if !want[k] {
				t.Fatalf("trial %d: kept dominated value %+v", trial, k)
			}
			if o.buf >= 0 && !generated[o] {
				t.Fatalf("trial %d: kept option %+v is not a generated one", trial, o)
			}
			if i > 0 {
				p := siteKeyOf(s.cur[i-1], width)
				if p.c > k.c || p.c == k.c && (p.q < k.q || p.q == k.q && p.w > k.w) {
					t.Fatalf("trial %d: kept options out of (c, q desc, w) order at %d", trial, i)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d tieHeavy=%v width=%v): kept %d values, want %d",
				trial, len(base), tieHeavy, width, len(got), len(want))
		}
	}
	if maxBase < 200 {
		t.Fatalf("largest bucket held %d options; the draw must reach well past the bucket sort's insertion cutoff", maxBase)
	}
}

// TestInsertBuffersTieRule pins which option represents an exact value
// tie: the unbuffered option over a buffered one, and among buffered
// options of one width the one extending the earlier unbuffered option.
func TestInsertBuffersTieRule(t *testing.T) {
	s := NewSolver()
	ts := &tech.Technology{Rs: 0, Co: 1, Cp: 0}
	s.widths = append(s.widths[:0], 2)
	// Rs = 0, so a buffer keeps q and adds its width 2 at load Co·2 = 2:
	// all three buffered extensions are (2, 5, 3), option 0's own value.
	s.cur = append(s.cur[:0],
		sopt{c: 2, q: 5, w: 3, buf: -1, kids: 0},
		sopt{c: 3, q: 5, w: 1, buf: -1, kids: 1},
		sopt{c: 4, q: 5, w: 1, buf: -1, kids: 2},
	)
	s.insertBuffers(ts, true)
	if len(s.cur) != 2 {
		t.Fatalf("kept %+v, want two options", s.cur)
	}
	if o := s.cur[0]; o.buf != -1 || o.kids != 0 {
		t.Fatalf("first survivor %+v, want the unbuffered option 0", o)
	}
	if o := s.cur[1]; o.buf != -1 || o.kids != 1 {
		t.Fatalf("second survivor %+v, want the unbuffered option 1", o)
	}

	// Buffered ties alone: both extensions are (2, 9, 3), and the one on
	// the earlier unbuffered option survives.
	s.cur = append(s.cur[:0],
		sopt{c: 3, q: 9, w: 1, buf: -1, kids: 0},
		sopt{c: 4, q: 9, w: 1, buf: -1, kids: 1},
	)
	s.insertBuffers(ts, true)
	if len(s.cur) != 2 || s.cur[0].buf != 0 || s.cur[0].kids != 0 || s.cur[1].buf != -1 || s.cur[1].kids != 0 {
		t.Fatalf("kept %+v, want the buffer on option 0, then option 0 itself", s.cur)
	}
}

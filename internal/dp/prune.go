package dp

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/rip-eda/rip/internal/pareto"
)

// Pruning strategy
//
// The naive rendering of Pareto pruning sorts the whole generated set on
// the 3-key (c, d, w) order and filters it through a (d, w) front — an
// O(G·log G) sort with a closure comparator over G = |down|·(|B|+1)
// options, every level. The Solver instead exploits the generation
// structure (the Lillis–Cheng–Lin load-class observation, the paper's
// reference [14]): an option created by inserting repeater width w_i has
// load c = Co·w_i regardless of which downstream option it extends, so the
// generated set splits into |B|+1 buckets — one per repeater action plus
// the no-repeater bucket — where every repeater bucket has a single c
// value.
//
//   - Within a repeater bucket, 3-D dominance degenerates to 2-D (d, w)
//     dominance: a sort on d plus a linear sweep keeps the bucket's front
//     (d ascending, w strictly descending). Under the delay objective the
//     whole bucket collapses to its min-d element with no sort at all.
//     Because the bucket's c and action are constants, the bucket stores
//     bare (d, w, next) records — 24 bytes instead of 40 — so the sort
//     and sweep stream 40% less memory (the SoA layout of the hot merge).
//   - The bucket sort calls no comparator (pareto.Sorter): a stable
//     most-significant-digit radix sort on the order-preserving uint64
//     image of d, relative to the bucket's key range so shared leading
//     bits are skipped, finished by an insertion pass that also orders
//     equal-d runs by (w, sch); small buckets are insertion-sorted
//     outright. The result is the total order (d, w, sch, generation
//     index), so an exact value tie keeps the plain scheme, then the
//     earliest-generated option. Each concurrent reducer owns a Sorter,
//     so the scratch is race-free and a warm solve allocates nothing.
//   - The no-repeater bucket inherits the downstream level's (c, d, w)
//     order (kept runs are emitted sorted), so it is already sorted; a
//     linear check guards the rare rounding collision that breaks the
//     inheritance, re-sorting only then.
//   - The bucket fronts are then k-way merged in ascending (c, d, w)
//     order through one incremental (d, w) front, which performs the exact
//     dominance filter of the classic algorithm without ever sorting the
//     full generated set. The front is held as two parallel float slices
//     (frontD, frontW) so the binary-search filter touches contiguous
//     floats only.
//
// The result is exactly the set of non-dominated distinct (c, d, w) values
// (one representative each), emitted in ascending (c, d, w) order — the
// same value set the reference O(G log G + G·F) prune keeps, which the
// property tests in prune_test.go verify against an O(G²) dominance
// filter.
//
// Intra-net parallelism (par > 1) bolts onto this skeleton without
// touching the serial path: stage-1 bucket reduces are independent by
// construction, so levels whose generated count crosses thresh fan them
// across a bounded goroutine group; the stage-2 merge stays serial, so
// results are bit-identical to the serial schedule.

// dw is one (delay, width) Pareto-front entry (kept for the preserved
// reference implementation in reference_test.go).
type dw struct{ d, w float64 }

// dwn is one repeater-bucket record: the bucket's c and action are
// constants held once in the pruner, so options in it are just
// (Key = delay, W = width, Ref = arena link) plus the scheme byte coupled
// solves carry in Tag (it fits in the struct's existing padding).
type dwn = pareto.Rec

// mergeHead is one cursor of the k-way bucket merge.
type mergeHead struct {
	b int32 // bucket index: 0 = no-repeater, i+1 = width index i
	i int32 // next unconsumed option in that bucket
}

// pruner holds the bucketed-prune scratch. Buffers are retained across
// levels and solves; bucket 0 is the no-repeater action, bucket i+1 the
// library's width index i.
type pruner struct {
	b0     []option  // no-repeater bucket: arbitrary c, inherits sort order
	rb     [][]dwn   // repeater buckets, one per library width
	rbC    []float64 // the constant c of each repeater bucket
	frontD []float64 // incremental front, delay coordinates (ascending)
	frontW []float64 // incremental front, width coordinates (descending)
	heap   []mergeHead
	// sorters holds the repeater-bucket sort scratch, one per concurrent
	// reducer, so the parallel stage 1 shares none.
	sorters []pareto.Sorter

	// par > 1 fans stage-1 bucket reduces across up to par goroutines
	// (including the caller) for levels generating ≥ thresh options.
	// acquire/release, when set, gate each extra goroutine against the
	// engine's shared worker budget; a failed acquire just means fewer
	// helpers.
	par     int
	thresh  int
	acquire func() bool
	release func()
}

// reset prepares the pruner for a new level of nb buckets (one no-repeater
// plus nb-1 repeater widths), keeping allocated capacity.
func (p *pruner) reset(nb int) {
	p.b0 = p.b0[:0]
	nr := nb - 1
	if cap(p.rb) < nr {
		grown := make([][]dwn, nr)
		copy(grown, p.rb)
		p.rb = grown
		p.rbC = make([]float64, nr)
	}
	p.rb = p.rb[:nr]
	p.rbC = p.rbC[:nr]
	for i := range p.rb {
		p.rb[i] = p.rb[i][:0]
	}
}

// add places one generated option into its bucket. The solver's hot loop
// appends directly; this helper keeps tests and cold paths readable.
func (p *pruner) add(bi int, o option) {
	if bi == 0 {
		p.b0 = append(p.b0, o)
		return
	}
	p.rbC[bi-1] = o.c
	p.rb[bi-1] = append(p.rb[bi-1], dwn{Key: o.d, W: o.w, Ref: o.next, Tag: o.sch})
}

// generated reports the number of options currently in the buckets.
func (p *pruner) generated() int {
	n := len(p.b0)
	for i := range p.rb {
		n += len(p.rb[i])
	}
	return n
}

// cmpOpt orders options by (c, d, w) ascending — (c, d) only when the
// width coordinate is ignored (2-D mode). Width-blindness is a comparison
// concern: the options' real widths are never modified. Exact value ties
// break by scheme so coupled solves stay deterministic under the unstable
// sorts (plain first, which is what makes a zero-coupling duplicate kill
// keep the plain option); uncoupled solves carry sch == 0 everywhere and
// are unaffected.
func cmpOpt(a, b *option, threeD bool) int {
	switch {
	case a.c != b.c:
		if a.c < b.c {
			return -1
		}
		return 1
	case a.d != b.d:
		if a.d < b.d {
			return -1
		}
		return 1
	case threeD && a.w != b.w:
		if a.w < b.w {
			return -1
		}
		return 1
	case a.sch != b.sch:
		if a.sch < b.sch {
			return -1
		}
		return 1
	}
	return 0
}

// reduceB0 reduces bucket 0 to sorted (c, d, w) order. It inherits the
// downstream kept order, so the common case is a verify-only pass.
func (p *pruner) reduceB0(threeD bool) {
	if !slices.IsSortedFunc(p.b0, func(a, b option) int { return cmpOpt(&a, &b, threeD) }) {
		slices.SortFunc(p.b0, func(a, b option) int { return cmpOpt(&a, &b, threeD) })
	}
}

// reduceRB reduces repeater bucket bi with the sorter's scratch to its
// own (d, w) front — or, width ignored, to its single min-d element. The
// bucket has one c, so its front is the 2-D front pareto.Sorter.Reduce
// extracts: a stable radix sort on d whose insertion pass puts equal-d
// runs in (w, sch) order, then a sweep keeping strictly decreasing
// widths. The survivor of an exact value tie is thus the plain scheme
// (see cmpOpt) and, among equal schemes, the earliest-generated option;
// width ignored, it is the first minimum.
func (p *pruner) reduceRB(bi int, threeD bool, srt *pareto.Sorter) {
	p.rb[bi] = srt.Reduce(p.rb[bi], threeD)
}

// reduceAll runs stage 1 over every bucket — serially, or fanned across a
// bounded goroutine group when the level is wide enough to pay for it.
// Buckets are independent, so the parallel schedule produces bit-identical
// bucket fronts.
func (p *pruner) reduceAll(threeD bool) {
	nb := 1 + len(p.rb)
	extra := 0 // helper goroutines
	if p.par > 1 && nb > 1 && p.generated() >= p.thresh {
		extra = min(p.par-1, nb-1)
	}
	// One sorter per concurrent reducer: the caller uses sorters[0],
	// helper i sorters[i].
	if len(p.sorters) < extra+1 {
		p.sorters = make([]pareto.Sorter, extra+1)
	}
	if extra == 0 {
		p.reduceB0(threeD)
		for bi := range p.rb {
			p.reduceRB(bi, threeD, &p.sorters[0])
		}
		return
	}
	var next atomic.Int64
	work := func(srt *pareto.Sorter) {
		for {
			i := int(next.Add(1)) - 1
			if i >= nb {
				return
			}
			if i == 0 {
				p.reduceB0(threeD)
			} else {
				p.reduceRB(i-1, threeD, srt)
			}
		}
	}
	var wg sync.WaitGroup
	for i := 1; i <= extra; i++ {
		if p.acquire != nil && !p.acquire() {
			break // worker budget exhausted: fewer helpers, not an error
		}
		wg.Add(1)
		go func(srt *pareto.Sorter) {
			defer wg.Done()
			if p.release != nil {
				defer p.release()
			}
			work(srt)
		}(&p.sorters[i])
	}
	work(&p.sorters[0])
	wg.Wait()
}

// frontIdx returns the first front index whose delay exceeds key — the
// binary search both the dominance filter and the insert position use.
func (p *pruner) frontIdx(key float64) int {
	lo, hi := 0, len(p.frontD)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.frontD[mid] > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// pruneInto removes dominated options from the filled buckets and appends
// the survivors to dst in ascending (c, d, w) order, returning the
// extended slice. With threeD it applies the 3-D Pareto rule on (c, d, w);
// otherwise the 2-D rule on (c, d), comparing as if every width were zero
// without mutating any option.
func (p *pruner) pruneInto(dst []option, threeD bool) []option {
	// Stage 1: reduce each bucket to its own front.
	p.reduceAll(threeD)

	// Stage 2: k-way merge of the bucket fronts in ascending (c, d, w)
	// order through a single incremental (d, w) front. Every run is sorted
	// in that order (repeater buckets have constant c and ascending d), so
	// a small binary heap over the run heads yields the global order.
	p.heap = p.heap[:0]
	if len(p.b0) > 0 {
		p.heap = append(p.heap, mergeHead{b: 0})
	}
	for bi := range p.rb {
		if len(p.rb[bi]) > 0 {
			p.heap = append(p.heap, mergeHead{b: int32(bi + 1)})
		}
	}
	for i := len(p.heap)/2 - 1; i >= 0; i-- {
		p.siftDown(i, threeD)
	}

	p.frontD = p.frontD[:0]
	p.frontW = p.frontW[:0]
	for len(p.heap) > 0 {
		h := p.heap[0]
		var o option
		var blen int
		if h.b == 0 {
			o = p.b0[h.i]
			blen = len(p.b0)
		} else {
			e := p.rb[h.b-1][h.i]
			o = option{c: p.rbC[h.b-1], d: e.Key, w: e.W, act: h.b - 1, next: e.Ref, sch: e.Tag}
			blen = len(p.rb[h.b-1])
		}
		if int(h.i)+1 < blen {
			p.heap[0].i++
		} else {
			last := len(p.heap) - 1
			p.heap[0] = p.heap[last]
			p.heap = p.heap[:last]
		}
		p.siftDown(0, threeD)

		// front holds kept (d, w) pairs sorted by d ascending with
		// strictly decreasing w; every entry's c ≤ o.c by merge order, so
		// o is dominated iff some entry has d ≤ o.d and w ≤ o.w.
		ow := o.w
		if !threeD {
			ow = 0
		}
		ins := p.frontIdx(o.d)
		if ins > 0 && p.frontW[ins-1] <= ow {
			continue // dominated (or a duplicate of a kept value)
		}
		dst = append(dst, o)
		// Insert (o.d, ow) at its position; drop entries it dominates
		// (d ≥ o.d, w ≥ ow).
		j := ins
		for j < len(p.frontW) && p.frontW[j] >= ow {
			j++
		}
		if j == ins {
			p.frontD = append(p.frontD, 0)
			copy(p.frontD[ins+1:], p.frontD[ins:])
			p.frontD[ins] = o.d
			p.frontW = append(p.frontW, 0)
			copy(p.frontW[ins+1:], p.frontW[ins:])
			p.frontW[ins] = ow
		} else {
			p.frontD[ins] = o.d
			p.frontD = append(p.frontD[:ins+1], p.frontD[j:]...)
			p.frontW[ins] = ow
			p.frontW = append(p.frontW[:ins+1], p.frontW[j:]...)
		}
	}
	return dst
}

// headLess orders merge cursors by their head option's (c, d, w), breaking
// exact value ties by bucket index for determinism.
func (p *pruner) headLess(x, y mergeHead, threeD bool) bool {
	xc, xd, xw := p.headVal(x)
	yc, yd, yw := p.headVal(y)
	switch {
	case xc != yc:
		return xc < yc
	case xd != yd:
		return xd < yd
	case threeD && xw != yw:
		return xw < yw
	}
	return x.b < y.b
}

// headVal reads the (c, d, w) of a merge cursor's head option.
func (p *pruner) headVal(h mergeHead) (c, d, w float64) {
	if h.b == 0 {
		o := &p.b0[h.i]
		return o.c, o.d, o.w
	}
	e := &p.rb[h.b-1][h.i]
	return p.rbC[h.b-1], e.Key, e.W
}

// siftDown restores the heap property from index i.
func (p *pruner) siftDown(i int, threeD bool) {
	for {
		l := 2*i + 1
		if l >= len(p.heap) {
			return
		}
		min := l
		if r := l + 1; r < len(p.heap) && p.headLess(p.heap[r], p.heap[l], threeD) {
			min = r
		}
		if !p.headLess(p.heap[min], p.heap[i], threeD) {
			return
		}
		p.heap[i], p.heap[min] = p.heap[min], p.heap[i]
		i = min
	}
}

// Package pareto reduces the constant-load buckets of the line (dp) and
// tree dynamic programs to their 2-D Pareto fronts without a comparator
// sort.
//
// Both DPs exploit the load-class observation of Lillis, Cheng and Lin
// (the paper's reference [14]): an option created by inserting a
// repeater of width wᵢ has load Co·wᵢ whatever option it extends, so all
// options one width generates share a load and 3-D (load, delay, width)
// dominance inside that bucket degenerates to 2-D (key, width)
// dominance. Reducing a bucket is a sort on the key plus a linear sweep.
// The sort is the hot spot of a front solve, so it is a stable radix sort
// on the key's order-preserving uint64 image: no comparator calls and no
// allocation once the scratch has grown. Small buckets use insertion
// sort.
package pareto

import (
	"math"
	"math/bits"
)

// Rec is one option of a constant-load bucket. The bucket's load and
// repeater action are held once by the caller, so a record carries only
// the sort key, the width, a link back to the option it extends and a
// tag byte. The line DP stores the delay in Key and the scheme in Tag;
// the tree DP stores the negated required time in Key, so ascending Key
// is descending required time.
type Rec struct {
	Key, W float64
	Ref    int32
	Tag    uint8
}

// insertionCutoff is the bucket size below which Sort uses insertion
// sort: clearing and scanning the digit histograms costs more than the
// quadratic sort on fewer records.
const insertionCutoff = 48

// Sorter holds the scratch of one sorting goroutine: the record and key
// buffers and the digit histogram. The zero value is ready to use. A
// Sorter is not safe for concurrent use; give each concurrent reducer
// its own.
type Sorter struct {
	tmp           []Rec
	keys, tmpKeys []uint64
	count         [1 << maxDigitBits]uint32
}

// maxDigitBits caps the digit width, and so the histogram, at 2048 bins.
const maxDigitBits = 11

// Reduce reduces b to its Pareto front in place and returns it: the
// records no other record beats on both Key (lower is better) and W
// (lower is better), in ascending Key with strictly descending W. Among
// records with equal (Key, W) the one with the lowest Tag survives, and
// among exact duplicates the earliest in b. With width false, W is
// ignored and the front is the first record with the least Key.
func (s *Sorter) Reduce(b []Rec, width bool) []Rec {
	if len(b) <= 1 {
		return b
	}
	if !width {
		best := 0
		for i := 1; i < len(b); i++ {
			if b[i].Key < b[best].Key {
				best = i
			}
		}
		b[0] = b[best]
		return b[:1]
	}
	s.Sort(b)
	out := b[:0]
	minW := math.Inf(1)
	for i := range b {
		if b[i].W < minW {
			minW = b[i].W
			out = append(out, b[i])
		}
	}
	return out
}

// Sort orders b by (Key, W, Tag) ascending, keeping input order among
// equal records, so the result is the total order (Key, W, Tag, input
// index). +0 and −0 keys compare equal, as they do under <.
//
// The sort is a stable most-significant-digit radix sort on the key's
// order-preserving uint64 image. The digit is taken relative to the
// bucket's key range: the leading bits every key shares are skipped and
// one counting pass spreads the records over about n bins, so most bins
// hold one or two records. An insertion pass over the whole bucket then
// finishes the order: records only move within their bin, and within a
// bin that pass is also the tie-fix putting equal keys in (W, Tag)
// order. A bin still holding insertionCutoff or more records is sorted
// the same way first, on its own key range. Only a run of exactly equal
// keys is left to insertion sort whatever its length; delays and
// required times tie exactly only by coincidence.
func (s *Sorter) Sort(b []Rec) {
	n := len(b)
	if n < insertionCutoff {
		insertionSort(b)
		return
	}
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.tmpKeys = make([]uint64, n)
		s.tmp = make([]Rec, n)
	}
	k := s.keys[:n]
	for i := range b {
		k[i] = sortKey(b[i].Key)
	}
	s.sort(b, k)
}

// sort is Sort on at least insertionCutoff records whose keys are
// already in k (k[i] belongs to b[i]); it permutes both.
func (s *Sorter) sort(b []Rec, k []uint64) {
	n := len(b)
	lo, hi := k[0], k[0]
	for _, x := range k[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	if lo == hi {
		insertionSortKeyed(b, k) // one run of equal keys: ties only
		return
	}
	// Digit: the top nb bits of the key's offset within [lo, hi].
	nb := min(bits.Len(uint(n)), maxDigitBits)
	shift := uint(max(bits.Len64(hi-lo)-nb, 0))
	h := s.count[:1<<nb]
	clear(h)
	for _, x := range k {
		h[(x-lo)>>shift]++
	}
	sum, most := uint32(0), uint32(0)
	for d, c := range h {
		h[d] = sum
		sum += c
		most = max(most, c)
	}
	tmp, tk := s.tmp[:n], s.tmpKeys[:n]
	for i, x := range k {
		d := (x - lo) >> shift
		tmp[h[d]] = b[i]
		tk[h[d]] = x
		h[d]++
	}
	copy(b, tmp)
	copy(k, tk)
	if most >= insertionCutoff && shift > 0 {
		// Dense bins recurse; the scratch is free again from here on.
		for i := 0; i < n; {
			d := (k[i] - lo) >> shift
			j := i + 1
			for j < n && (k[j]-lo)>>shift == d {
				j++
			}
			if j-i >= insertionCutoff {
				s.sort(b[i:j], k[i:j])
			}
			i = j
		}
	}
	insertionSortKeyed(b, k)
}

// sortKey maps a float64 to a uint64 whose unsigned order is the float
// order: flip every bit of a negative value, only the sign bit of a
// positive one. −0 maps to +0's image so the two stay equal.
func sortKey(f float64) uint64 {
	u := math.Float64bits(f)
	if u == 1<<63 {
		u = 0
	}
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// insertionSortKeyed is insertionSort on records whose sort keys are in
// k, comparing the integer keys first.
func insertionSortKeyed(b []Rec, k []uint64) {
	for i := 1; i < len(b); i++ {
		x, kx := b[i], k[i]
		j := i
		for j > 0 && (kx < k[j-1] || kx == k[j-1] && lessWT(&x, &b[j-1])) {
			b[j], k[j] = b[j-1], k[j-1]
			j--
		}
		b[j], k[j] = x, kx
	}
}

// insertionSort is a stable sort of b by (Key, W, Tag).
func insertionSort(b []Rec) {
	for i := 1; i < len(b); i++ {
		x := b[i]
		j := i
		for j > 0 && less(&x, &b[j-1]) {
			b[j] = b[j-1]
			j--
		}
		b[j] = x
	}
}

func less(a, b *Rec) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return lessWT(a, b)
}

// lessWT orders records with equal keys.
func lessWT(a, b *Rec) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	return a.Tag < b.Tag
}

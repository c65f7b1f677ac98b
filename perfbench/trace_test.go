package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{ID: 1, Name: "root", Start: at(0), End: at(100)},
		// Sticks out before the parent's start: only [0, 30] counts.
		{ID: 2, Parent: 1, Name: "a", Start: at(-20), End: at(30)},
		// Overlaps a: [20, 50] adds only [30, 50].
		{ID: 3, Parent: 1, Name: "b", Start: at(20), End: at(50)},
		// Nested inside b: adds nothing to root's coverage.
		{ID: 4, Parent: 1, Name: "c", Start: at(25), End: at(40)},
		// Sticks out past the parent's end: only [80, 100] counts.
		{ID: 5, Parent: 1, Name: "d", Start: at(80), End: at(130)},
		// A grandchild covers part of b, not of root.
		{ID: 6, Parent: 3, Name: "e", Start: at(45), End: at(60)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 30 * time.Millisecond, // 100 − |[0,50] ∪ [80,100]| = 100 − 70
		2: 50 * time.Millisecond,
		3: 25 * time.Millisecond, // 30 − |[45,50]|
		4: 15 * time.Millisecond,
		5: 50 * time.Millisecond,
		6: 15 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, self[id], w)
		}
	}
	ts := summarize(spans, "root")
	if got := ts.coverage; got < 0.6999 || got > 0.7001 {
		t.Errorf("root coverage %g, want 0.7", got)
	}
}

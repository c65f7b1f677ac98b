package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		vals []float64
		q    float64
		want float64
	}{
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{4, 3, 2, 1}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.99, 4},
		{[]float64{1, 2, 3, 4}, 0.25, 1},
		{[]float64{7}, 0.99, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(c.vals, c.q); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.vals, c.q, got, c.want)
		}
	}
}

// One stalled response holds the only connection, so the requests due
// behind it wait, and their latency from the due time shows the wait.
func TestOpenLoopStallRaisesQueuedLatency(t *testing.T) {
	const stall = 150 * time.Millisecond
	ops := make([]*op, 4)
	for i := range ops {
		ops[i] = &op{idx: i, due: time.Duration(i) * 10 * time.Millisecond}
	}
	run := func(stallFirst bool) []timing {
		return openLoop(ops, 1, time.Now(), func(i int, _, _ time.Time) {
			if i == 0 && stallFirst {
				time.Sleep(stall)
			} else {
				time.Sleep(time.Millisecond)
			}
		})
	}
	calm, stalled := run(false), run(true)
	for i := 1; i < len(ops); i++ {
		if calm[i].latency() > 60*time.Millisecond {
			t.Errorf("request %d took %v without a stall", i, calm[i].latency())
		}
		// Request i was due 10·i ms after the stalled one was sent, so it
		// waited at least stall − 10·i ms.
		min := stall - ops[i].due
		if stalled[i].latency() < min || stalled[i].queue() < min-time.Millisecond {
			t.Errorf("request %d: latency %v, queue %v behind a %v stall; want ≥ %v",
				i, stalled[i].latency(), stalled[i].queue(), stall, min)
		}
		if stalled[i].lag() > 5*time.Millisecond {
			t.Errorf("request %d: generator lag %v counts queueing as lateness", i, stalled[i].lag())
		}
	}
}

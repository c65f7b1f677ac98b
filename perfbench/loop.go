package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// timing is one request's life in the client: when it was due, when a
// sender was free to take it, when it went out and when its answer had
// been read. A closed loop, which has one request in flight at a time,
// also records the process CPU time used from sent to done.
type timing struct {
	due, ready, sent, done time.Time
	cpu                    time.Duration
}

// latency is the request's time from when it was due, so a request that
// waited for a connection counts its wait.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// queue is the wait between due and sent.
func (t timing) queue() time.Duration { return t.sent.Sub(t.due) }

// lag is how late the generator sent a request a sender was free for:
// the sleep overshoot, not queueing behind busy senders.
func (t timing) lag() time.Duration { return t.sent.Sub(t.ready) }

// openLoop sends ops at their due times (offsets from start) over conns
// senders. Senders take ops in due order; a request due while every
// sender is busy waits for the first one free. do performs one request
// and returns once its answer is read, leaving the check for later so
// the sender is free again; it receives the op's due and sent times.
func openLoop(ops []*op, conns int, start time.Time, do func(i int, due, sent time.Time)) []timing {
	times := make([]timing, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				ready := time.Now()
				if d := due.Sub(ready); d > 0 {
					time.Sleep(d)
					ready = due
				}
				sent := time.Now()
				do(i, due, sent)
				times[i] = timing{due: due, ready: ready, sent: sent, done: time.Now()}
			}
		}()
	}
	wg.Wait()
	return times
}

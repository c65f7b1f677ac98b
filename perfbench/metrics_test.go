package main

import (
	"testing"
	"time"
)

// A closed loop's CPU time per operation is the median of its ten
// slices', so one slow slice does not set it, and failed operations do
// not count as work done.
func TestCPUPerOpMedianSlice(t *testing.T) {
	p := &pass{}
	for i := 0; i < 20; i++ {
		cpu := 100 * time.Microsecond
		if i < 2 {
			cpu = 10 * time.Millisecond // one slow slice
		}
		p.add(&op{route: "optimize"}, reply{}, timing{cpu: cpu})
	}
	if got := cpuPerOp("xtalk-bus", p, summarizePass(p)); got != 100 {
		t.Errorf("cpuPerOp = %g µs, want 100", got)
	}
	for i := range p.replies {
		p.replies[i].out.failed = i % 2 // half of every slice failed
	}
	if got := cpuPerOp("xtalk-bus", p, summarizePass(p)); got != 200 {
		t.Errorf("cpuPerOp with half the ops failed = %g µs, want 200", got)
	}
	open := &pass{cpu: 3 * time.Millisecond}
	for i := 0; i < 3; i++ {
		open.add(&op{route: "optimize"}, reply{}, timing{})
	}
	if got := cpuPerOp("whatif-open", open, summarizePass(open)); got != 1000 {
		t.Errorf("open-loop cpuPerOp = %g µs, want 1000", got)
	}
}

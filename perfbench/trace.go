package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one traced interval: a call into a layer, timed from outside
// it. Spans of one request share Req; Parent is the ID of the span that
// caused it (0 for a root).
type Span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Time
}

func (s Span) dur() time.Duration { return s.End.Sub(s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pass nil and pay one branch per span.
type Tracer struct {
	seq   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// Active is an open span; End closes and records it. Methods on a nil
// *Active are no-ops.
type Active struct {
	t *Tracer
	s Span
}

// Start opens a span named name under parent (0 for a root) for request
// req.
func (t *Tracer) Start(name string, parent, req int64) *Active {
	if t == nil {
		return nil
	}
	return &Active{t: t, s: Span{ID: t.seq.Add(1), Parent: parent, Req: req, Name: name, Start: time.Now()}}
}

// ID is the span's identifier, for children to name as their parent.
func (a *Active) ID() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// End closes the span, records it and returns its duration.
func (a *Active) End() time.Duration {
	if a == nil {
		return 0
	}
	a.s.End = time.Now()
	a.t.Add(a.s)
	return a.s.dur()
}

// Add records a span measured elsewhere (the server-side wrapper knows
// its parent only from request headers).
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// NewID reserves a span ID for a span recorded later with Add.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.seq.Add(1)
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children may overlap each other and stick out past the parent's edges;
// only the covered part inside the parent counts, and only once.
func selfTimes(spans []Span) map[int64]time.Duration {
	kids := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of parent's interval covered by the union of the
// children's intervals.
func covered(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// traceSummary aggregates a run's spans: total self time per span name,
// and the share of the named roots' wall time their children cover.
type traceSummary struct {
	selfMS   map[string]float64
	coverage float64
}

func summarize(spans []Span, root string) traceSummary {
	self := selfTimes(spans)
	ts := traceSummary{selfMS: make(map[string]float64)}
	var rootDur, rootSelf time.Duration
	for _, s := range spans {
		ts.selfMS[s.Name] += float64(self[s.ID]) / 1e6
		if s.Name == root {
			rootDur += s.dur()
			rootSelf += self[s.ID]
		}
	}
	if rootDur > 0 {
		ts.coverage = 1 - float64(rootSelf)/float64(rootDur)
	}
	return ts
}

// durationsMS collects the durations, in ms, of the spans named name.
func durationsMS(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

package engine

import (
	"context"
	"fmt"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/wire"
)

// FrontPoint is one point of a served power–delay (or power–slack)
// trade-off curve. Exactly the timing field matching the net kind is
// populated.
type FrontPoint struct {
	// Delay is the point's total Elmore delay in seconds (line nets), or
	// the worst-sink arrival it achieves (trees answered in uniform
	// mode). Zero for embedded-deadline trees.
	Delay float64
	// Slack is the point's worst slack against the tree's embedded
	// per-sink deadlines, in seconds. Zero for line nets and
	// uniform-mode trees.
	Slack float64
	// TotalWidth is the summed repeater/buffer width — the power
	// objective.
	TotalWidth float64
	// Repeaters is the number of inserted repeaters (buffers).
	Repeaters int
	// StaggerLen and ShieldLen are the summed lengths, in meters, of the
	// point's staggered and shielded intervals. Zero except on coupled
	// line fronts (a coupled Job.Scenario).
	StaggerLen float64
	ShieldLen  float64
}

// FrontResult is one net's whole retained Pareto front — the what-if
// curve POST /v1/front serves. Points run from fastest (most power) to
// cheapest; adjacent points strictly trade delay for width.
type FrontResult struct {
	// Net / TreeNet echo the queried net (exactly one is set).
	Net     *wire.Net
	TreeNet *tree.Net
	// Tech is the node the front was solved under.
	Tech string
	// TMin is the net's reference-space minimum achievable delay (worst
	// sink arrival for trees); zero for embedded-deadline trees.
	TMin float64
	// Points is the front, fastest first.
	Points []FrontPoint
	// Scenario echoes the query's crosstalk scenario (zero for uncoupled
	// queries).
	Scenario delay.Scenario
	// CacheHit reports whether the curve came from the solution cache.
	CacheHit bool
	// Err records a failure (validation or solver error).
	Err error
}

// Front returns the net's full power–delay Pareto front without
// committing to a budget: the curve a what-if budget/power sweep
// explores. Job.TargetMult, Target and Budgets are ignored for lines;
// for trees they only select the mode — any budget form forces the
// uniform zero-RAT curve, while a budget-less job on a tree whose sinks
// all carry deadlines returns the embedded-deadline curve. The front is
// cached (and served from cache) under the same shape-keyed entries the
// solve path uses.
func (e *Engine) Front(j Job) FrontResult {
	return e.FrontContext(context.Background(), j)
}

// FrontContext is Front with cancellation, checked at the same phase
// boundaries as SolveContext.
func (e *Engine) FrontContext(ctx context.Context, j Job) (fr FrontResult) {
	fr.Net = j.Net
	fr.TreeNet = j.TreeNet
	fr.Tech = e.tech.Name
	defer func() {
		if p := recover(); p != nil {
			fr.Err = fmt.Errorf("engine: solver panic: %v", p)
		}
	}()
	name := jobName(j)
	switch {
	case !e.acceptsTech(j.Tech):
		fr.Tech = j.Tech
		fr.Err = badJob("engine: net %q requests node %q but this engine solves %q (serve multiple nodes through a Multi)",
			name, j.Tech, e.tech.Name)
		return fr
	case j.Net == nil && j.TreeNet == nil:
		fr.Err = badJob("engine: job has a nil net")
		return fr
	case j.Net != nil && j.TreeNet != nil:
		fr.Err = badJob("engine: net %q: give Net or TreeNet, not both", name)
		return fr
	}
	cpl, err := e.lineCoupling(j, name)
	if err != nil {
		fr.Err = err
		return fr
	}
	fr.Scenario = j.Scenario
	select {
	case e.solveSlots <- struct{}{}:
		defer func() { <-e.solveSlots }()
	case <-ctx.Done():
		fr.Err = fmt.Errorf("engine: net %q: %w", name, ctx.Err())
		return fr
	}
	if err := ctx.Err(); err != nil {
		fr.Err = fmt.Errorf("engine: net %q: %w", name, err)
		return fr
	}
	if j.TreeNet != nil {
		return e.treeFrontContext(ctx, j, fr)
	}

	ev, err := delay.NewEvaluator(j.Net, e.tech)
	if err != nil {
		fr.Err = asBadJob(err)
		return fr
	}
	var key string
	if e.cache != nil {
		key = e.sig.key(j)
		if ent, ok := e.cache.get(key); ok && !ent.tree && len(ent.front) > 0 {
			e.hits.Add(1)
			fr.CacheHit = true
			fr.TMin = ent.tmin
			fr.Points = lineFrontPoints(ent.front)
			return fr
		}
		e.misses.Add(1)
	}
	s := dp.AcquireSolver()
	defer dp.ReleaseSolver(s)
	pts, tmin, err := e.solveLineFront(ctx, s, ev, j.Net.Name, key, cpl)
	if err != nil {
		fr.Err = err
		return fr
	}
	fr.TMin = tmin
	fr.Points = lineFrontPoints(pts)
	return fr
}

// treeFrontContext is the tree arm of FrontContext.
func (e *Engine) treeFrontContext(ctx context.Context, j Job, fr FrontResult) FrontResult {
	tn := j.TreeNet
	if err := tn.Validate(); err != nil {
		fr.Err = asBadJob(err)
		return fr
	}
	embedded := treeEmbedded(j)
	var key string
	if e.cache != nil {
		key = e.sig.treeKey(j, embedded)
		if ent, ok := e.cache.get(key); ok && ent.tree && len(ent.treeFront) > 0 {
			e.hits.Add(1)
			fr.CacheHit = true
			fr.TMin = ent.tmin
			fr.Points = treeFrontPoints(ent.treeFront, embedded)
			return fr
		}
		e.misses.Add(1)
	}
	ts := tree.AcquireSolver()
	defer tree.ReleaseSolver(ts)
	pts, tmin, err := e.solveTreeFront(ctx, ts, tn, embedded, key)
	if err != nil {
		fr.Err = err
		return fr
	}
	fr.TMin = tmin
	fr.Points = treeFrontPoints(pts, embedded)
	return fr
}

// jobName returns the job's net name regardless of kind, for error
// paths that have no Result to lean on.
func jobName(j Job) string {
	if j.Net != nil {
		return j.Net.Name
	}
	if j.TreeNet != nil {
		return j.TreeNet.Name
	}
	return ""
}

// lineFrontPoints renders a retained line front as public curve points.
func lineFrontPoints(f lineFront) []FrontPoint {
	out := make([]FrontPoint, len(f))
	for i, p := range f {
		out[i] = FrontPoint{
			Delay:      p.delay,
			TotalWidth: p.totalWidth,
			Repeaters:  len(p.widths),
			StaggerLen: p.staggerLen,
			ShieldLen:  p.shieldLen,
		}
	}
	return out
}

// treeFrontPoints renders a retained tree front: uniform-mode fronts
// live on the zero-RAT clone, where −slack is the worst-sink arrival.
func treeFrontPoints(f treeFront, embedded bool) []FrontPoint {
	out := make([]FrontPoint, len(f))
	for i, p := range f {
		fp := FrontPoint{TotalWidth: p.totalWidth, Repeaters: len(p.widths)}
		if embedded {
			fp.Slack = p.slack
		} else {
			fp.Delay = -p.slack
		}
		out[i] = fp
	}
	return out
}

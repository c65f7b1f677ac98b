package api

import (
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/units"
)

// This file is the peer-forwarding bridge: a replica that does not own
// a job's shape re-encodes the already-decoded job as a wire Request
// (FromJob), POSTs it to the owner over the ordinary /v1/* endpoints,
// and lifts the owner's wire Response back into the engine result type
// (ToResult / ToFrontResult) so the local transport renders it exactly
// like a local solve. Net geometry crosses the wire verbatim — only
// the time fields convert between seconds and nanoseconds.

// FromJob re-encodes an engine job as the wire request that produces
// it: the inverse of Request.Job, with Tech carried through (callers
// forward jobs whose Tech the local Multi already resolved to a
// canonical name, which every replica's registry also accepts).
func FromJob(j engine.Job) Request {
	r := Request{
		V:          WireVersion,
		Net:        j.Net,
		Tree:       j.TreeNet,
		Tech:       j.Tech,
		TargetMult: j.TargetMult,
		TargetNS:   j.Target / units.NanoSecond,
	}
	for _, b := range j.Budgets {
		r.TargetsNS = append(r.TargetsNS, b/units.NanoSecond)
	}
	// A coupled job forwards its normalized tokens ("plain" included), an
	// explicit-factor job "mf" alone.
	r.Aggressor, r.Scheme, r.MF = j.Scenario.Tokens()
	if j.TreeNet == nil {
		// Always an explicit "eps": 0 for line jobs: a peer still running
		// a release with ε-relaxed solving would apply its own -eps default
		// to a job without the field, and serve a relaxed answer.
		eps := 0.0
		r.Eps = &eps
		// An uncoupled line job forwards a literal "none" for the same
		// reason: an absent "aggressor" would let the peer's own default
		// scenario couple a job the client asked to be classic.
		if r.Aggressor == "" && r.MF == nil {
			r.Aggressor = delay.AggressorNone.String()
		}
	}
	return r
}

// ToResult lifts a peer's wire response into the engine result the
// local transport would have produced: nets and scenario echoed from
// the original job, time fields back in seconds, and failures re-wrapped
// as coded errors so the peer's classification (timeout, bad_request,
// ...) survives the hop.
func ToResult(resp Response, j engine.Job) engine.Result {
	r := engine.Result{
		Net:      j.Net,
		TreeNet:  j.TreeNet,
		Tech:     resp.Tech,
		CacheHit: resp.CacheHit,
	}
	if err := resp.Err.Err(); err != nil {
		r.Err = err
		return r
	}
	r.Scenario = j.Scenario
	tree := j.TreeNet != nil
	if len(resp.Sweep) > 0 {
		r.Sweep = make([]engine.BudgetAnswer, len(resp.Sweep))
		for i, p := range resp.Sweep {
			r.Sweep[i] = toBudgetAnswer(p, tree)
		}
		return r
	}
	r.Target = resp.TargetNS * units.NanoSecond
	if tree {
		r.TreeRes.Solution = toTreeSolution(resp.Feasible, resp.SlackNS, resp.TotalWidthU, resp.Buffers)
		return r
	}
	r.Res.Solution = toLineSolution(resp.Feasible, resp.DelayNS, resp.TotalWidthU, resp.PositionsUM, resp.WidthsU)
	r.Res.Solution.StaggerLen = units.Microns(resp.StaggeredUM)
	r.Res.Solution.ShieldLen = units.Microns(resp.ShieldedUM)
	return r
}

// ToFrontResult lifts a peer's wire front response into the engine
// front result, mirroring ToResult.
func ToFrontResult(resp FrontResponse, j engine.Job) engine.FrontResult {
	fr := engine.FrontResult{
		Net:      j.Net,
		TreeNet:  j.TreeNet,
		Tech:     resp.Tech,
		CacheHit: resp.CacheHit,
	}
	if err := resp.Err.Err(); err != nil {
		fr.Err = err
		return fr
	}
	fr.TMin = resp.TMinNS * units.NanoSecond
	fr.Scenario = j.Scenario
	fr.Points = make([]engine.FrontPoint, len(resp.Points))
	for i, p := range resp.Points {
		fr.Points[i] = engine.FrontPoint{
			Delay:      p.DelayNS * units.NanoSecond,
			Slack:      p.SlackNS * units.NanoSecond,
			TotalWidth: p.TotalWidthU,
			Repeaters:  p.Repeaters,
			StaggerLen: units.Microns(p.StaggeredUM),
			ShieldLen:  units.Microns(p.ShieldedUM),
		}
	}
	return fr
}

func toBudgetAnswer(p SweepPoint, isTree bool) engine.BudgetAnswer {
	ba := engine.BudgetAnswer{Budget: p.TargetNS * units.NanoSecond}
	if isTree {
		ba.TreeRes.Solution = toTreeSolution(p.Feasible, p.SlackNS, p.TotalWidthU, p.Buffers)
		return ba
	}
	ba.Res.Solution = toLineSolution(p.Feasible, p.DelayNS, p.TotalWidthU, p.PositionsUM, p.WidthsU)
	ba.Res.Solution.StaggerLen = units.Microns(p.StaggeredUM)
	ba.Res.Solution.ShieldLen = units.Microns(p.ShieldedUM)
	return ba
}

func toLineSolution(feasible bool, delayNS, totalWidth float64, positionsUM, widths []float64) dp.Solution {
	sol := dp.Solution{
		Delay:      delayNS * units.NanoSecond,
		TotalWidth: totalWidth,
		Feasible:   feasible,
	}
	if len(positionsUM) > 0 || len(widths) > 0 {
		asg := delay.Assignment{
			Positions: make([]float64, len(positionsUM)),
			Widths:    append([]float64(nil), widths...),
		}
		for i, x := range positionsUM {
			asg.Positions[i] = units.Microns(x)
		}
		sol.Assignment = asg
	}
	return sol
}

func toTreeSolution(feasible bool, slackNS, totalWidth float64, buffers []TreeBuffer) tree.Solution {
	sol := tree.Solution{
		Slack:      slackNS * units.NanoSecond,
		TotalWidth: totalWidth,
		Feasible:   feasible,
	}
	if len(buffers) > 0 {
		sol.Buffers = make(map[int]float64, len(buffers))
		for _, b := range buffers {
			sol.Buffers[b.NodeID] = b.WidthU
		}
	}
	return sol
}

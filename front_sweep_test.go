package rip_test

// Differential sweep for the front-native engine: across every built-in
// node, both net kinds and a 25-budget ladder (13 relative + 12
// absolute), answers served by front lookup from a warm engine must
// match fresh budget-specific solves — the old one-budget-one-solve path
// preserved in reference form by a cache-disabled engine. Placements are
// compared bit for bit; served line delays are recomputed on the actual
// net at hit time, so they carry an ulp-level re-evaluation tolerance
// (tree slacks are recomputed on both paths and must agree exactly).

import (
	"math"
	"testing"

	rip "github.com/rip-eda/rip"
)

// sweepLadder builds the 25-budget ladder for a net with minimum delay
// tmin: 13 relative multipliers and 12 absolute targets, interleaved
// over [1.3, 2.5]×τmin — all feasible for corpus nets.
func sweepLadder(tmin float64) (mults, targets []float64) {
	for k := 0; k < 13; k++ {
		mults = append(mults, 1.3+0.1*float64(k))
	}
	for k := 0; k < 12; k++ {
		targets = append(targets, (1.35+0.095*float64(k))*tmin)
	}
	return mults, targets
}

// sameSweepLine compares a front-lookup line answer against a fresh
// budget-specific solve: assignment and width bitwise, delay within the
// hit path's re-evaluation tolerance.
func sameSweepLine(t *testing.T, label string, got, want rip.BatchResult) {
	t.Helper()
	if got.Err != nil || want.Err != nil {
		t.Fatalf("%s: errs lookup=%v fresh=%v", label, got.Err, want.Err)
	}
	gs, ws := got.Res.Solution, want.Res.Solution
	if gs.Feasible != ws.Feasible || gs.TotalWidth != ws.TotalWidth ||
		got.Target != want.Target || got.TMin != want.TMin {
		t.Fatalf("%s: lookup %+v (target %g τmin %g) != fresh %+v (target %g τmin %g)",
			label, gs, got.Target, got.TMin, ws, want.Target, want.TMin)
	}
	if len(gs.Assignment.Positions) != len(ws.Assignment.Positions) {
		t.Fatalf("%s: %d repeaters vs %d", label, len(gs.Assignment.Positions), len(ws.Assignment.Positions))
	}
	for i := range gs.Assignment.Positions {
		if gs.Assignment.Positions[i] != ws.Assignment.Positions[i] ||
			gs.Assignment.Widths[i] != ws.Assignment.Widths[i] {
			t.Fatalf("%s: assignment differs at repeater %d", label, i)
		}
	}
	if d := math.Abs(gs.Delay - ws.Delay); d > 1e-12*math.Max(gs.Delay, ws.Delay) {
		t.Fatalf("%s: delay %g vs %g beyond re-evaluation tolerance", label, gs.Delay, ws.Delay)
	}
	if got.Res.Report.Picked != want.Res.Report.Picked {
		t.Fatalf("%s: picked %v vs %v", label, got.Res.Report.Picked, want.Res.Report.Picked)
	}
}

// TestConformanceFrontSweepLine: per node, solve one net cold on a warm
// engine, then answer the whole ladder from its cached front; every
// answer must match a fresh cache-disabled solve of that exact budget,
// and a single multi-budget job must reproduce the per-budget answers
// bit for bit.
func TestConformanceFrontSweepLine(t *testing.T) {
	if testing.Short() {
		t.Skip("25-budget differential sweep")
	}
	for _, techName := range conformanceNodes {
		t.Run(techName, func(t *testing.T) {
			t.Parallel()
			node, err := rip.BuiltinTech(techName)
			if err != nil {
				t.Fatal(err)
			}
			nets, err := rip.GenerateNets(node, 83, 1)
			if err != nil {
				t.Fatal(err)
			}
			net := nets[0]
			tmin, err := rip.MinimumDelay(net, node)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := rip.NewEngine(node, rip.EngineOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := rip.NewEngine(node, rip.EngineOptions{Workers: 1, Cache: rip.CacheOptions{Disabled: true}})
			if err != nil {
				t.Fatal(err)
			}
			mults, targets := sweepLadder(tmin)
			for _, m := range mults {
				j := rip.BatchJob{Net: net, TargetMult: m}
				sameSweepLine(t, techName+"/rel", warm.Solve(j), fresh.Solve(j))
			}
			var fromSingles []rip.BatchResult
			for _, target := range targets {
				j := rip.BatchJob{Net: net, Target: target}
				got, want := warm.Solve(j), fresh.Solve(j)
				sameSweepLine(t, techName+"/abs", got, want)
				fromSingles = append(fromSingles, got)
			}
			// The batched sweep must reproduce the individual lookups exactly:
			// one job, every budget, same cached front.
			sweep := warm.Solve(rip.BatchJob{Net: net, Budgets: targets})
			if sweep.Err != nil {
				t.Fatalf("%s: sweep: %v", techName, sweep.Err)
			}
			if len(sweep.Sweep) != len(targets) {
				t.Fatalf("%s: sweep answered %d budgets, want %d", techName, len(sweep.Sweep), len(targets))
			}
			for k, ba := range sweep.Sweep {
				single := fromSingles[k].Res.Solution
				batch := ba.Res.Solution
				if ba.Budget != targets[k] || batch.Feasible != single.Feasible ||
					batch.Delay != single.Delay || batch.TotalWidth != single.TotalWidth {
					t.Fatalf("%s: sweep budget %d differs from single solve: %+v vs %+v",
						techName, k, batch, single)
				}
			}
		})
	}
}

// TestConformanceFrontSweepTree is the tree leg: uniform-deadline
// answers on both budget forms, bit-identical between front lookup and
// fresh solve — tree answers recompute slack on the actual tree on every
// path, so the comparison is exact.
func TestConformanceFrontSweepTree(t *testing.T) {
	if testing.Short() {
		t.Skip("25-budget differential sweep")
	}
	for _, techName := range conformanceNodes {
		t.Run(techName, func(t *testing.T) {
			t.Parallel()
			node, err := rip.BuiltinTech(techName)
			if err != nil {
				t.Fatal(err)
			}
			trees, err := rip.GenerateTreeNets(node, 89, 1)
			if err != nil {
				t.Fatal(err)
			}
			tn := trees[0]
			tmin, err := rip.TreeMinimumDelay(tn, node)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := rip.NewEngine(node, rip.EngineOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := rip.NewEngine(node, rip.EngineOptions{Workers: 1, Cache: rip.CacheOptions{Disabled: true}})
			if err != nil {
				t.Fatal(err)
			}
			mults, targets := sweepLadder(tmin)
			for _, m := range mults {
				j := rip.BatchJob{TreeNet: tn, TargetMult: m}
				sameTreeResult(t, techName+"/rel", warm.Solve(j), fresh.Solve(j))
			}
			for _, target := range targets {
				j := rip.BatchJob{TreeNet: tn, Target: target}
				sameTreeResult(t, techName+"/abs", warm.Solve(j), fresh.Solve(j))
			}
			sweep := warm.Solve(rip.BatchJob{TreeNet: tn, Budgets: targets})
			if sweep.Err != nil {
				t.Fatalf("%s: tree sweep: %v", techName, sweep.Err)
			}
			for k, ba := range sweep.Sweep {
				want := fresh.Solve(rip.BatchJob{TreeNet: tn, Target: targets[k]})
				if !ba.TreeRes.Solution.Feasible || ba.TreeRes.Solution.Slack != want.TreeRes.Solution.Slack ||
					ba.TreeRes.Solution.TotalWidth != want.TreeRes.Solution.TotalWidth {
					t.Fatalf("%s: tree sweep budget %d differs: %+v vs %+v",
						techName, k, ba.TreeRes.Solution, want.TreeRes.Solution)
				}
			}
		})
	}
}

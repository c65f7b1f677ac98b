package rip_test

// Cross-package conformance sweep for multi-technology serving: the
// multi-engine path must be answer-identical to a fresh single-node
// engine for every built-in node, both objectives (the MinPower pipeline
// solve and the MinDelay τmin reference), and both net kinds — and a
// mixed-technology batch must equal the concatenation of its per-node
// sub-batches. These tests pin the guarantee the whole PR rests on:
// routing a job through the Multi changes nothing about its answer,
// only where it is solved and cached.

import (
	"maps"
	"testing"

	rip "github.com/rip-eda/rip"
)

// conformanceNodes is the full built-in sweep.
var conformanceNodes = []string{"180nm", "130nm", "90nm", "65nm"}

// singleEngine builds a fresh one-node engine the classic way — the
// reference the Multi is measured against.
func singleEngine(t *testing.T, techName string) (*rip.Engine, *rip.Technology) {
	t.Helper()
	node, err := rip.BuiltinTech(techName)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rip.NewEngine(node, rip.EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng, node
}

func multiAllNodes(t *testing.T, workers int) *rip.MultiEngine {
	t.Helper()
	eng, err := rip.NewMultiEngine(rip.BuiltinTechRegistry(), "180nm", rip.EngineOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// sameLineResult compares two line results' answers bit for bit.
func sameLineResult(t *testing.T, label string, multi, single rip.BatchResult) {
	t.Helper()
	if multi.Err != nil || single.Err != nil {
		t.Fatalf("%s: errs multi=%v single=%v", label, multi.Err, single.Err)
	}
	ms, ss := multi.Res.Solution, single.Res.Solution
	switch {
	case multi.Target != single.Target,
		multi.TMin != single.TMin,
		ms.Feasible != ss.Feasible,
		ms.Delay != ss.Delay,
		ms.TotalWidth != ss.TotalWidth,
		len(ms.Assignment.Positions) != len(ss.Assignment.Positions):
		t.Fatalf("%s: results differ\nmulti:  %+v (target %g tmin %g)\nsingle: %+v (target %g tmin %g)",
			label, ms, multi.Target, multi.TMin, ss, single.Target, single.TMin)
	}
	for i := range ms.Assignment.Positions {
		if ms.Assignment.Positions[i] != ss.Assignment.Positions[i] ||
			ms.Assignment.Widths[i] != ss.Assignment.Widths[i] {
			t.Fatalf("%s: assignment differs at repeater %d", label, i)
		}
	}
	if multi.Res.Report.Picked != single.Res.Report.Picked {
		t.Fatalf("%s: picked %v vs %v", label, multi.Res.Report.Picked, single.Res.Report.Picked)
	}
}

// sameTreeResult compares two tree results' answers bit for bit.
func sameTreeResult(t *testing.T, label string, multi, single rip.BatchResult) {
	t.Helper()
	if multi.Err != nil || single.Err != nil {
		t.Fatalf("%s: errs multi=%v single=%v", label, multi.Err, single.Err)
	}
	ms, ss := multi.TreeRes.Solution, single.TreeRes.Solution
	if multi.Target != single.Target || multi.TMin != single.TMin ||
		ms.Feasible != ss.Feasible || ms.Slack != ss.Slack || ms.TotalWidth != ss.TotalWidth {
		t.Fatalf("%s: results differ\nmulti:  %+v (target %g tmin %g)\nsingle: %+v (target %g tmin %g)",
			label, ms, multi.Target, multi.TMin, ss, single.Target, single.TMin)
	}
	if !maps.Equal(ms.Buffers, ss.Buffers) {
		t.Fatalf("%s: buffer placements differ: %v vs %v", label, ms.Buffers, ss.Buffers)
	}
	if multi.TreeRes.Picked != single.TreeRes.Picked {
		t.Fatalf("%s: picked %q vs %q", label, multi.TreeRes.Picked, single.TreeRes.Picked)
	}
}

// TestConformanceMultiMatchesSingleLine sweeps every built-in node with
// both budget forms on line nets: the Multi's answer must be
// bit-identical to a fresh single-node engine's, its τmin must be the
// facade's MinimumDelay (the MinDelay objective), and the pipeline solve
// is the MinPower objective.
func TestConformanceMultiMatchesSingleLine(t *testing.T) {
	multi := multiAllNodes(t, 1)
	for _, techName := range conformanceNodes {
		t.Run(techName, func(t *testing.T) {
			t.Parallel()
			single, node := singleEngine(t, techName)
			nets, err := rip.GenerateNets(node, 71, 2)
			if err != nil {
				t.Fatal(err)
			}
			// τmin for the absolute-budget leg, and the MinDelay cross-check.
			tmin, err := rip.MinimumDelay(nets[0], node)
			if err != nil {
				t.Fatal(err)
			}
			jobs := []rip.BatchJob{
				{Net: nets[0], TargetMult: 1.3},
				{Net: nets[0], Target: 1.25 * tmin},
				{Net: nets[1], TargetMult: 1.15},
			}
			for i, j := range jobs {
				mj := j
				mj.Tech = techName
				mres := multi.Solve(mj)
				sres := single.Solve(j)
				label := techName + "/" + nets[0].Name
				sameLineResult(t, label, mres, sres)
				if mres.Tech != techName {
					t.Fatalf("%s: attribution %q", label, mres.Tech)
				}
				if i == 0 && mres.TMin != tmin {
					t.Fatalf("%s: multi τmin %g != MinimumDelay %g", label, mres.TMin, tmin)
				}
			}
		})
	}
}

// TestConformanceMultiMatchesSingleTree is the tree-kind leg of the same
// sweep: per node, relative and absolute budgets, answers bit-identical,
// and τmin equal to TreeMinimumDelay.
func TestConformanceMultiMatchesSingleTree(t *testing.T) {
	multi := multiAllNodes(t, 1)
	for _, techName := range conformanceNodes {
		single, node := singleEngine(t, techName)
		trees, err := rip.GenerateTreeNets(node, 73, 2)
		if err != nil {
			t.Fatal(err)
		}
		tmin, err := rip.TreeMinimumDelay(trees[0], node)
		if err != nil {
			t.Fatal(err)
		}
		jobs := []rip.BatchJob{
			{TreeNet: trees[0], TargetMult: 1.3},
			{TreeNet: trees[0], Target: 1.25 * tmin},
			{TreeNet: trees[1], TargetMult: 1.4},
		}
		for i, j := range jobs {
			mj := j
			mj.Tech = techName
			mres := multi.Solve(mj)
			sres := single.Solve(j)
			label := techName + "/" + j.TreeNet.Name
			sameTreeResult(t, label, mres, sres)
			if i == 0 && mres.TMin != tmin {
				t.Fatalf("%s: multi τmin %g != TreeMinimumDelay %g", label, mres.TMin, tmin)
			}
		}
	}
}

// TestConformanceMixedBatchEqualsPerTech runs one mixed-technology batch
// — all four nodes interleaved, lines and trees — and checks it equals
// the concatenation of per-node batches run on fresh single-node
// engines: same order within each node, same answers, so mixing nodes
// in one stream costs nothing in fidelity.
func TestConformanceMixedBatchEqualsPerTech(t *testing.T) {
	multi := multiAllNodes(t, 4)
	perTech := make(map[string][]rip.BatchJob)
	var mixed []rip.BatchJob
	for i, techName := range conformanceNodes {
		node, err := rip.BuiltinTech(techName)
		if err != nil {
			t.Fatal(err)
		}
		nets, err := rip.GenerateNets(node, int64(100+i), 2)
		if err != nil {
			t.Fatal(err)
		}
		trees, err := rip.GenerateTreeNets(node, int64(200+i), 1)
		if err != nil {
			t.Fatal(err)
		}
		jobs := []rip.BatchJob{
			{Net: nets[0], Tech: techName, TargetMult: 1.3},
			{TreeNet: trees[0], Tech: techName, TargetMult: 1.35},
			{Net: nets[1], Tech: techName, TargetMult: 1.2},
		}
		perTech[techName] = jobs
		mixed = append(mixed, jobs...)
	}
	// Interleave: round-robin across nodes rather than blocks.
	var interleaved []rip.BatchJob
	for k := 0; k < 3; k++ {
		for _, techName := range conformanceNodes {
			interleaved = append(interleaved, perTech[techName][k])
		}
	}
	mixedResults := multi.Run(interleaved)

	for _, techName := range conformanceNodes {
		single, _ := singleEngine(t, techName)
		singleResults := single.Run(stripTech(perTech[techName]))
		// Collect this node's results from the mixed run, in order.
		var got []rip.BatchResult
		for _, r := range mixedResults {
			if r.Tech == techName {
				got = append(got, r)
			}
		}
		if len(got) != len(singleResults) {
			t.Fatalf("%s: %d mixed results, want %d", techName, len(got), len(singleResults))
		}
		for k := range got {
			if got[k].TreeNet != nil {
				sameTreeResult(t, techName, got[k], singleResults[k])
			} else {
				sameLineResult(t, techName, got[k], singleResults[k])
			}
		}
	}
}

func stripTech(jobs []rip.BatchJob) []rip.BatchJob {
	out := make([]rip.BatchJob, len(jobs))
	for i, j := range jobs {
		j.Tech = ""
		out[i] = j
	}
	return out
}

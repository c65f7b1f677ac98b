package rip_test

// Bus co-optimization conformance sweep: coordination must never lose
// to the independent pessimistic solves it replaces, the iterated
// best-response loop must land between the exact chain DP and that
// baseline, per-track attribution must sum exactly to the group
// totals, relabeled/permuted groups must reuse the same cache entries,
// and a bus whose nets carry no coupling capacitance must reproduce N
// independent classic solves bit for bit.

import (
	"context"
	"math"
	"testing"

	rip "github.com/rip-eda/rip"
)

// busGroups generates the conformance track groups on one node.
func busGroups(t *testing.T, node *rip.Technology, seed int64, count int) [][]*rip.Net {
	t.Helper()
	groups, err := rip.GenerateBusGroups(node, seed, count)
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// costLE reports (inf1, w1) ≤ (inf2, w2) lexicographically — the
// "coordination never loses" order.
func costLE(inf1 int, w1 float64, inf2 int, w2 float64) bool {
	if inf1 != inf2 {
		return inf1 < inf2
	}
	return w1 <= w2
}

// TestConformanceBusNeverWorseThanIndependent solves every group on
// all four nodes and pins the central guarantee: the coordinated
// assignment's (infeasible count, total width) never exceeds the
// independent pessimistic baseline's, and that baseline is bit-equal
// to per-track worst/plain solves — the answer a client not using
// /v1/bus would have gotten.
func TestConformanceBusNeverWorseThanIndependent(t *testing.T) {
	nodes := conformanceNodes
	if testing.Short() {
		nodes = nodes[:1]
	}
	for _, techName := range nodes {
		t.Run(techName, func(t *testing.T) {
			t.Parallel()
			eng, node := singleEngine(t, techName)
			ref, _ := singleEngine(t, techName)
			for _, tracks := range busGroups(t, node, 907, 3) {
				br := eng.SolveBus(context.Background(), rip.BusJob{Tracks: tracks, TargetMult: 1.3})
				if br.Err != nil {
					t.Fatalf("%s/%s: %v", techName, tracks[0].Name, br.Err)
				}
				if !costLE(br.Infeasible, br.GroupCost, br.BaselineInfeasible, br.GroupBaselineCost) {
					t.Fatalf("%s/%s: coordinated (%d, %g) worse than independent (%d, %g)",
						techName, tracks[0].Name, br.Infeasible, br.GroupCost,
						br.BaselineInfeasible, br.GroupBaselineCost)
				}
				for i, bt := range br.Tracks {
					ind := ref.Solve(rip.BatchJob{Net: tracks[i], TargetMult: 1.3, Scenario: scenario(t, "worst", "plain")})
					if ind.Err != nil {
						t.Fatalf("%s/%s: independent solve: %v", techName, tracks[i].Name, ind.Err)
					}
					is, bs := ind.Res.Solution, bt.Baseline.Solution
					if bt.Target != ind.Target || bt.TMin != ind.TMin ||
						bs.Feasible != is.Feasible || bs.TotalWidth != is.TotalWidth || bs.Delay != is.Delay {
						t.Fatalf("%s/%s track %d: bus baseline (target %g tmin %g width %g) != worst/plain solve (%g, %g, %g)",
							techName, tracks[i].Name, i, bt.Target, bt.TMin, bs.TotalWidth,
							ind.Target, ind.TMin, is.TotalWidth)
					}
				}
			}
		})
	}
}

// TestConformanceBusExactOracle pins the method split: the default
// method on groups of at most 4 tracks is the joint chain DP, bitwise
// equal to an explicit Method "exact" run, and the iterated
// best-response answer lands between the exact optimum and the
// independent baseline.
func TestConformanceBusExactOracle(t *testing.T) {
	eng, node := singleEngine(t, "180nm")
	for _, tracks := range busGroups(t, node, 911, 4) {
		auto := eng.SolveBus(context.Background(), rip.BusJob{Tracks: tracks, TargetMult: 1.25})
		exact := eng.SolveBus(context.Background(), rip.BusJob{Tracks: tracks, TargetMult: 1.25, Method: "exact"})
		iter := eng.SolveBus(context.Background(), rip.BusJob{Tracks: tracks, TargetMult: 1.25, Method: "iterate"})
		label := tracks[0].Name
		if auto.Err != nil || exact.Err != nil || iter.Err != nil {
			t.Fatalf("%s: errs auto=%v exact=%v iterate=%v", label, auto.Err, exact.Err, iter.Err)
		}
		if len(tracks) <= 4 {
			if auto.Method != "exact" {
				t.Fatalf("%s: %d tracks defaulted to method %q", label, len(tracks), auto.Method)
			}
			if auto.GroupCost != exact.GroupCost || auto.Infeasible != exact.Infeasible ||
				auto.GroupBaselineCost != exact.GroupBaselineCost {
				t.Fatalf("%s: auto (%d, %g) != exact (%d, %g)", label,
					auto.Infeasible, auto.GroupCost, exact.Infeasible, exact.GroupCost)
			}
			for i := range auto.Tracks {
				a, e := auto.Tracks[i], exact.Tracks[i]
				if a.Scheme != e.Scheme || a.MF != e.MF || a.Cost != e.Cost {
					t.Fatalf("%s track %d: auto (%s, %g, %g) != exact (%s, %g, %g)",
						label, i, a.Scheme, a.MF, a.Cost, e.Scheme, e.MF, e.Cost)
				}
			}
		} else if auto.Method != "iterate" {
			t.Fatalf("%s: %d tracks defaulted to method %q", label, len(tracks), auto.Method)
		}
		if !costLE(exact.Infeasible, exact.GroupCost, iter.Infeasible, iter.GroupCost) {
			t.Fatalf("%s: exact (%d, %g) worse than iterate (%d, %g)", label,
				exact.Infeasible, exact.GroupCost, iter.Infeasible, iter.GroupCost)
		}
		if !costLE(iter.Infeasible, iter.GroupCost, iter.BaselineInfeasible, iter.GroupBaselineCost) {
			t.Fatalf("%s: iterate (%d, %g) worse than independent (%d, %g)", label,
				iter.Infeasible, iter.GroupCost, iter.BaselineInfeasible, iter.GroupBaselineCost)
		}
	}
}

// TestConformanceBusAttributionSums pins the per-track attribution:
// feasible tracks' costs sum exactly to the group totals, and the
// savings fields sum exactly to the group savings, on every node.
func TestConformanceBusAttributionSums(t *testing.T) {
	nodes := conformanceNodes
	if testing.Short() {
		nodes = nodes[:1]
	}
	for _, techName := range nodes {
		t.Run(techName, func(t *testing.T) {
			t.Parallel()
			eng, node := singleEngine(t, techName)
			for _, tracks := range busGroups(t, node, 919, 2) {
				br := eng.SolveBus(context.Background(), rip.BusJob{Tracks: tracks, TargetMult: 1.3})
				if br.Err != nil {
					t.Fatalf("%s: %v", techName, br.Err)
				}
				if len(br.Tracks) != len(tracks) {
					t.Fatalf("%s: %d attributions for %d tracks", techName, len(br.Tracks), len(tracks))
				}
				var cost, base, area, pw float64
				var inf, binf int
				for _, bt := range br.Tracks {
					if math.IsInf(bt.Cost, 1) {
						inf++
					} else {
						cost += bt.Cost
					}
					if math.IsInf(bt.BaselineCost, 1) {
						binf++
					} else {
						base += bt.BaselineCost
					}
					area += bt.AreaSaved
					pw += bt.PowerSavedW
				}
				switch {
				case cost != br.GroupCost, inf != br.Infeasible:
					t.Fatalf("%s: track costs sum to (%d, %g), group reports (%d, %g)",
						techName, inf, cost, br.Infeasible, br.GroupCost)
				case base != br.GroupBaselineCost, binf != br.BaselineInfeasible:
					t.Fatalf("%s: track baselines sum to (%d, %g), group reports (%d, %g)",
						techName, binf, base, br.BaselineInfeasible, br.GroupBaselineCost)
				case area != br.GroupAreaSaved, pw != br.GroupPowerSavedW:
					t.Fatalf("%s: track savings sum to (%g, %g), group reports (%g, %g)",
						techName, area, pw, br.GroupAreaSaved, br.GroupPowerSavedW)
				}
			}
		})
	}
}

// TestConformanceBusRelabeledPermutationCacheStable solves a group,
// then solves it again reversed and with every track renamed: the
// totals must match (the neighbor model is symmetric under reversal)
// and the cache must not grow — member fronts are keyed by (shape,
// factor), never by name or track position.
func TestConformanceBusRelabeledPermutationCacheStable(t *testing.T) {
	eng, node := singleEngine(t, "180nm")
	for gi, tracks := range busGroups(t, node, 929, 2) {
		first := eng.SolveBus(context.Background(), rip.BusJob{Tracks: tracks, TargetMult: 1.3})
		if first.Err != nil {
			t.Fatal(first.Err)
		}
		entries := eng.CacheStats().Entries

		relabeled := make([]*rip.Net, len(tracks))
		for i, n := range tracks {
			c := *n
			c.Name = "renamed" + n.Name
			relabeled[len(tracks)-1-i] = &c
		}
		second := eng.SolveBus(context.Background(), rip.BusJob{Tracks: relabeled, TargetMult: 1.3})
		if second.Err != nil {
			t.Fatal(second.Err)
		}
		if first.GroupCost != second.GroupCost || first.Infeasible != second.Infeasible ||
			first.GroupBaselineCost != second.GroupBaselineCost {
			t.Fatalf("group %d: reversed relabeled bus answers (%d, %g), original (%d, %g)",
				gi, second.Infeasible, second.GroupCost, first.Infeasible, first.GroupCost)
		}
		if after := eng.CacheStats().Entries; after != entries {
			t.Fatalf("group %d: relabeled re-solve grew the cache %d -> %d entries", gi, entries, after)
		}
		for i, bt := range second.Tracks {
			if !bt.CacheHit {
				t.Fatalf("group %d: relabeled track %d missed the cache", gi, i)
			}
		}
	}
}

// TestConformanceBusZeroCouplingMatchesClassic is the bus analogue of
// the zero-Cc differential: on a coupled node whose layers carry no
// coupling capacitance, coordination has nothing to trade — every
// track must decide plain and reproduce the classic uncoupled solve
// bit for bit, with zero reported savings.
func TestConformanceBusZeroCouplingMatchesClassic(t *testing.T) {
	node := *rip.T180()
	node.Name = "t180-zerocc-bus"
	node.Layers = append(node.Layers[:0:0], node.Layers...)
	for i := range node.Layers {
		node.Layers[i].CcFPerM = 0
	}
	eng, err := rip.NewEngine(&node, rip.EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rip.NewEngine(&node, rip.EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tracks := range busGroups(t, &node, 937, 2) {
		br := eng.SolveBus(context.Background(), rip.BusJob{Tracks: tracks, TargetMult: 1.3})
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		if br.GroupAreaSaved != 0 || br.GroupPowerSavedW != 0 {
			t.Fatalf("%s: zero-coupling bus reports savings (%g, %g)",
				tracks[0].Name, br.GroupAreaSaved, br.GroupPowerSavedW)
		}
		for i, bt := range br.Tracks {
			classic := ref.Solve(rip.BatchJob{Net: tracks[i], TargetMult: 1.3})
			if classic.Err != nil {
				t.Fatal(classic.Err)
			}
			if bt.Scheme != "plain" {
				t.Fatalf("%s track %d: decided %q on a zero-coupling bus", tracks[0].Name, i, bt.Scheme)
			}
			cs, bs := classic.Res.Solution, bt.Res.Solution
			if bt.Target != classic.Target || bs.Feasible != cs.Feasible ||
				bs.TotalWidth != cs.TotalWidth {
				t.Fatalf("%s track %d: bus (target %g width %g) != classic (%g, %g)",
					tracks[0].Name, i, bt.Target, bs.TotalWidth, classic.Target, cs.TotalWidth)
			}
			// Delay compares to 1 part in 1e9: warm serves recompute it via
			// the verification walk (see sameCoupledWarmResult).
			if d := bs.Delay - cs.Delay; d > 1e-9*cs.Delay || d < -1e-9*cs.Delay {
				t.Fatalf("%s track %d: delay %.17g vs %.17g", tracks[0].Name, i, bs.Delay, cs.Delay)
			}
			for k := range bs.Assignment.Positions {
				if bs.Assignment.Positions[k] != cs.Assignment.Positions[k] ||
					bs.Assignment.Widths[k] != cs.Assignment.Widths[k] {
					t.Fatalf("%s track %d: assignment differs at repeater %d", tracks[0].Name, i, k)
				}
			}
		}
	}
}

package rip_test

// Crosstalk conformance sweep: coupled solving must obey exactly the
// guarantees the classic path does. The Multi's coupled answers are
// bit-identical to fresh single-node engines for every aggressor ×
// scheme × node combination; coupled and uncoupled solves of the same
// net never share a cache entry; snapshots round-trip coupled payloads
// (schemes, staggered/shielded lengths) bit for bit; and a snapshot
// taken against a coupled node refuses to restore into a registry
// whose same-named node lost its coupling fields — a skipped section,
// never a silently wrong answer.

import (
	"os"
	"path/filepath"
	"testing"

	rip "github.com/rip-eda/rip"
)

var conformanceAggressors = []string{"worst", "best", "quiet"}
var conformanceSchemes = []string{"plain", "staggered", "shielded", "auto"}

// scenario parses a named crosstalk scenario, failing the test if the
// tokens are refused.
func scenario(t *testing.T, agg, scheme string) rip.Scenario {
	t.Helper()
	sc, err := rip.ParseScenario(agg, scheme, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// sameCoupledResult extends sameLineResult with the coupled payload:
// per-interval schemes and the staggered/shielded length accounting.
func sameCoupledResult(t *testing.T, label string, multi, single rip.BatchResult) {
	t.Helper()
	sameLineResult(t, label, multi, single)
	ms, ss := multi.Res.Solution, single.Res.Solution
	if len(ms.Schemes) != len(ss.Schemes) {
		t.Fatalf("%s: %d schemes vs %d", label, len(ms.Schemes), len(ss.Schemes))
	}
	for i := range ms.Schemes {
		if ms.Schemes[i] != ss.Schemes[i] {
			t.Fatalf("%s: scheme differs at interval %d: %d vs %d", label, i, ms.Schemes[i], ss.Schemes[i])
		}
	}
	if ms.StaggerLen != ss.StaggerLen || ms.ShieldLen != ss.ShieldLen {
		t.Fatalf("%s: scheme lengths (%g, %g) vs (%g, %g)",
			label, ms.StaggerLen, ms.ShieldLen, ss.StaggerLen, ss.ShieldLen)
	}
	if multi.Scenario != single.Scenario {
		t.Fatalf("%s: attribution %+v vs %+v", label, multi.Scenario, single.Scenario)
	}
}

// sameCoupledWarmResult compares a warm (cache-hit) answer against a
// cold reference. Everything is bit-exact except Delay: the hit path
// deliberately serves the recomputed Elmore walk over the actual net
// (see verifyLine), which may differ from the cold DP's incrementally
// accumulated delay in the last ULP — so delay compares to 1 part in
// 1e9 while assignment, width, schemes and lengths stay exact.
func sameCoupledWarmResult(t *testing.T, label string, warm, cold rip.BatchResult) {
	t.Helper()
	if warm.Err != nil || cold.Err != nil {
		t.Fatalf("%s: errs warm=%v cold=%v", label, warm.Err, cold.Err)
	}
	ws, cs := warm.Res.Solution, cold.Res.Solution
	if warm.Target != cold.Target || ws.Feasible != cs.Feasible || ws.TotalWidth != cs.TotalWidth {
		t.Fatalf("%s: results differ\nwarm: %+v (target %g)\ncold: %+v (target %g)",
			label, ws, warm.Target, cs, cold.Target)
	}
	if d := ws.Delay - cs.Delay; d > 1e-9*cs.Delay || d < -1e-9*cs.Delay {
		t.Fatalf("%s: delay %.17g vs %.17g", label, ws.Delay, cs.Delay)
	}
	if len(ws.Assignment.Positions) != len(cs.Assignment.Positions) {
		t.Fatalf("%s: %d repeaters vs %d", label, len(ws.Assignment.Positions), len(cs.Assignment.Positions))
	}
	for i := range ws.Assignment.Positions {
		if ws.Assignment.Positions[i] != cs.Assignment.Positions[i] ||
			ws.Assignment.Widths[i] != cs.Assignment.Widths[i] {
			t.Fatalf("%s: assignment differs at repeater %d", label, i)
		}
	}
	if len(ws.Schemes) != len(cs.Schemes) {
		t.Fatalf("%s: %d schemes vs %d", label, len(ws.Schemes), len(cs.Schemes))
	}
	for i := range ws.Schemes {
		if ws.Schemes[i] != cs.Schemes[i] {
			t.Fatalf("%s: scheme differs at interval %d", label, i)
		}
	}
	if ws.StaggerLen != cs.StaggerLen || ws.ShieldLen != cs.ShieldLen {
		t.Fatalf("%s: scheme lengths (%g, %g) vs (%g, %g)",
			label, ws.StaggerLen, ws.ShieldLen, cs.StaggerLen, cs.ShieldLen)
	}
	if warm.Scenario != cold.Scenario {
		t.Fatalf("%s: attribution %+v vs %+v", label, warm.Scenario, cold.Scenario)
	}
}

// TestConformanceCoupledMultiMatchesSingle sweeps aggressor × scheme ×
// node on line nets: the Multi's coupled answer must be bit-identical
// to a fresh single-node engine's, and the result must attribute the
// scenario it was solved under. Nodes run as parallel subtests on the
// one shared Multi; each node has its own engine there.
func TestConformanceCoupledMultiMatchesSingle(t *testing.T) {
	multi := multiAllNodes(t, 1)
	nodes := conformanceNodes
	if testing.Short() {
		nodes = nodes[:1]
	}
	for _, techName := range nodes {
		t.Run(techName, func(t *testing.T) {
			t.Parallel()
			single, node := singleEngine(t, techName)
			nets, err := rip.GenerateNets(node, 71, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, agg := range conformanceAggressors {
				for _, scheme := range conformanceSchemes {
					j := rip.BatchJob{Net: nets[0], TargetMult: 1.3, Scenario: scenario(t, agg, scheme)}
					mj := j
					mj.Tech = techName
					mres := multi.Solve(mj)
					sres := single.Solve(j)
					label := techName + "/" + agg + "/" + scheme
					sameCoupledResult(t, label, mres, sres)
					if a, s, _ := mres.Scenario.Tokens(); a != agg || s != scheme {
						t.Fatalf("%s: result attributes (%q, %q)", label, a, s)
					}
				}
			}
		})
	}
}

// TestConformanceCoupledZeroCcMatchesUncoupled is the engine-level
// zero-coupling differential: on a coupled node whose layers carry no
// coupling capacitance, every coupled scenario must reproduce the
// classic solve bit for bit — same delay, width and assignment, every
// interval plain, no staggered or shielded length.
func TestConformanceCoupledZeroCcMatchesUncoupled(t *testing.T) {
	node := *rip.T180()
	node.Name = "t180-zerocc"
	node.Layers = append(node.Layers[:0:0], node.Layers...)
	for i := range node.Layers {
		node.Layers[i].CcFPerM = 0
	}
	nets, err := rip.GenerateNets(&node, 811, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rip.NewEngine(&node, rip.EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cplEng, err := rip.NewEngine(&node, rip.EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nets {
		want := ref.Solve(rip.BatchJob{Net: n, TargetMult: 1.3})
		for _, agg := range conformanceAggressors {
			for _, scheme := range conformanceSchemes {
				got := cplEng.Solve(rip.BatchJob{Net: n, TargetMult: 1.3, Scenario: scenario(t, agg, scheme)})
				label := n.Name + "/" + agg + "/" + scheme
				if got.Err != nil || want.Err != nil {
					t.Fatalf("%s: errs coupled=%v classic=%v", label, got.Err, want.Err)
				}
				gs, ws := got.Res.Solution, want.Res.Solution
				if gs.Delay != ws.Delay || gs.TotalWidth != ws.TotalWidth || got.Target != want.Target {
					t.Fatalf("%s: coupled (delay %.17g width %g target %g) != classic (%.17g, %g, %g)",
						label, gs.Delay, gs.TotalWidth, got.Target, ws.Delay, ws.TotalWidth, want.Target)
				}
				for i := range gs.Assignment.Positions {
					if gs.Assignment.Positions[i] != ws.Assignment.Positions[i] ||
						gs.Assignment.Widths[i] != ws.Assignment.Widths[i] {
						t.Fatalf("%s: assignment differs at repeater %d", label, i)
					}
				}
				for i, sch := range gs.Schemes {
					if sch != 0 {
						t.Fatalf("%s: interval %d not plain on a zero-coupling net", label, i)
					}
				}
				if gs.StaggerLen != 0 || gs.ShieldLen != 0 {
					t.Fatalf("%s: nonzero scheme lengths (%g, %g)", label, gs.StaggerLen, gs.ShieldLen)
				}
			}
		}
	}
}

// TestConformanceCouplingJobValidation pins the scenario surface: a
// scheme needs an aggressor and unknown tokens are refused when the
// scenario is parsed, so no job can carry them; a tree job cannot be
// coupled and an explicit factor must fit the node — both job errors,
// never silent fallbacks to the classic model.
func TestConformanceCouplingJobValidation(t *testing.T) {
	for _, tc := range []struct{ name, agg, scheme string }{
		{"scheme without aggressor", "", "staggered"},
		{"scheme with explicit none", "none", "auto"},
		{"unknown aggressor", "loudest", ""},
		{"unknown scheme", "worst", "twisted"},
	} {
		if sc, err := rip.ParseScenario(tc.agg, tc.scheme, nil); err == nil {
			t.Fatalf("%s: parsed as %+v", tc.name, sc)
		}
	}
	eng, node := singleEngine(t, "180nm")
	trees, err := rip.GenerateTreeNets(node, 73, 1)
	if err != nil {
		t.Fatal(err)
	}
	nets, err := rip.GenerateNets(node, 71, 1)
	if err != nil {
		t.Fatal(err)
	}
	mf := node.MillerMax + 1
	over, err := rip.ParseScenario("", "", &mf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		job  rip.BatchJob
	}{
		{"tree+aggressor", rip.BatchJob{TreeNet: trees[0], TargetMult: 1.3, Scenario: scenario(t, "worst", "")}},
		{"mf above MillerMax", rip.BatchJob{Net: nets[0], TargetMult: 1.3, Scenario: over}},
	} {
		if res := eng.Solve(tc.job); res.Err == nil {
			t.Fatalf("%s: job accepted", tc.name)
		}
	}
	// The classic job still solves on the same engine after rejections.
	if res := eng.Solve(rip.BatchJob{Net: nets[0], TargetMult: 1.3}); res.Err != nil {
		t.Fatalf("classic job after rejections: %v", res.Err)
	}
}

// TestConformanceCouplingCacheIsolation solves the same net classic,
// coupled-pessimistic and coupled-staggered on one warm engine and
// checks every answer — first and second serve — against a fresh
// engine that only ever saw that one scenario. If coupled and
// uncoupled signatures ever collided, the second round would serve one
// scenario's cached answer to another and the bit-compare would fail.
func TestConformanceCouplingCacheIsolation(t *testing.T) {
	warm, node := singleEngine(t, "180nm")
	nets, err := rip.GenerateNets(node, 71, 1)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []struct {
		name       string
		agg, schem string
	}{
		{"classic", "", ""},
		{"none", "none", ""},
		{"worst/plain", "worst", "plain"},
		{"worst/staggered", "worst", "staggered"},
		{"quiet/staggered", "quiet", "staggered"},
		{"worst/shielded", "worst", "shielded"},
	}
	want := make([]rip.BatchResult, len(scenarios))
	for i, sc := range scenarios {
		fresh, _ := singleEngine(t, "180nm")
		want[i] = fresh.Solve(rip.BatchJob{Net: nets[0], TargetMult: 1.3, Scenario: scenario(t, sc.agg, sc.schem)})
		if want[i].Err != nil {
			t.Fatalf("%s: %v", sc.name, want[i].Err)
		}
	}
	for round := 0; round < 2; round++ {
		for i, sc := range scenarios {
			got := warm.Solve(rip.BatchJob{Net: nets[0], TargetMult: 1.3, Scenario: scenario(t, sc.agg, sc.schem)})
			sameCoupledWarmResult(t, sc.name, got, want[i])
			if round == 1 && !got.CacheHit {
				t.Fatalf("%s: second serve missed the cache", sc.name)
			}
		}
	}
	// "" and explicit "none" are the SAME scenario — they must share one
	// cache entry, not just agree: 6 scenarios, 5 distinct signatures.
	st := warm.CacheStats()
	if st.Entries != len(scenarios)-1 {
		t.Fatalf("cache holds %d entries, want %d (classic and none share one)", st.Entries, len(scenarios)-1)
	}
}

// TestConformanceCouplingSnapshotRoundTrip saves a cache holding
// classic and coupled entries and restores it into a fresh Multi: the
// restored engine must serve every scenario bit-identically, from
// cache, with the coupled payload (schemes, lengths) intact.
func TestConformanceCouplingSnapshotRoundTrip(t *testing.T) {
	jobs := func(n *rip.Net) []rip.BatchJob {
		return []rip.BatchJob{
			{Net: n, Tech: "180nm", TargetMult: 1.3},
			{Net: n, Tech: "180nm", TargetMult: 1.3, Scenario: scenario(t, "worst", "staggered")},
			{Net: n, Tech: "180nm", TargetMult: 1.3, Scenario: scenario(t, "worst", "shielded")},
			{Net: n, Tech: "180nm", TargetMult: 1.3, Scenario: scenario(t, "quiet", "auto")},
		}
	}
	node, err := rip.BuiltinTech("180nm")
	if err != nil {
		t.Fatal(err)
	}
	nets, err := rip.GenerateNets(node, 71, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := multiAllNodes(t, 1)
	want := first.Run(jobs(nets[0]))
	for _, r := range want {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	path := filepath.Join(t.TempDir(), "coupled.snap")
	if _, err := rip.SaveCacheSnapshot(path, first); err != nil {
		t.Fatal(err)
	}

	second := multiAllNodes(t, 1)
	st, err := rip.LoadCacheSnapshot(path, second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries == 0 || st.SkippedNodes != 0 {
		t.Fatalf("restore: %d entries, %d skipped nodes", st.Entries, st.SkippedNodes)
	}
	got := second.Run(jobs(nets[0]))
	for i := range got {
		agg, scheme, _ := want[i].Scenario.Tokens()
		label := agg + "/" + scheme
		sameCoupledWarmResult(t, label, got[i], want[i])
		if !got[i].CacheHit {
			t.Fatalf("%s: restored engine missed the cache", label)
		}
	}
}

// TestConformanceSnapshotRefusesDecoupledNode is the digest-mismatch
// regression: a snapshot taken while a node models coupling must NOT
// restore into a registry whose same-named node lost its coupling
// fields — the entries were priced under Miller factors the new node
// no longer has. The restore must skip the node's section (and say so
// in the stats), and the decoupled engine then solves fresh, matching
// a never-snapshotted engine bit for bit.
func TestConformanceSnapshotRefusesDecoupledNode(t *testing.T) {
	coupled := rip.T180()
	coupled.Name = "custom-cpl"

	reg1 := rip.NewTechRegistry()
	if err := reg1.Register("custom-cpl", coupled); err != nil {
		t.Fatal(err)
	}
	m1, err := rip.NewMultiEngine(reg1, "custom-cpl", rip.EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	nets, err := rip.GenerateNets(coupled, 71, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []rip.BatchJob{
		{Net: nets[0], TargetMult: 1.3},
		{Net: nets[0], TargetMult: 1.3, Scenario: scenario(t, "worst", "staggered")},
	}
	for _, r := range m1.Run(jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	path := filepath.Join(t.TempDir(), "cpl.snap")
	if _, err := rip.SaveCacheSnapshot(path, m1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	// The same node name, stripped of its coupling model.
	strip := *coupled
	strip.MillerMin, strip.MillerMax, strip.ShieldUPerM = 0, 0, 0
	stripLayers := append(strip.Layers[:0:0], strip.Layers...)
	for i := range stripLayers {
		stripLayers[i].CcFPerM = 0
	}
	strip.Layers = stripLayers
	reg2 := rip.NewTechRegistry()
	if err := reg2.Register("custom-cpl", &strip); err != nil {
		t.Fatal(err)
	}
	m2, err := rip.NewMultiEngine(reg2, "custom-cpl", rip.EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rip.LoadCacheSnapshot(path, m2)
	if err != nil {
		t.Fatal(err)
	}
	if st.SkippedNodes == 0 || st.Entries != 0 {
		t.Fatalf("decoupled restore accepted entries: %+v", st)
	}

	// The decoupled engine still answers — fresh and correct.
	fresh, err := rip.NewMultiEngine(reg2, "custom-cpl", rip.EngineOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Regenerate on the stripped node so both engines price zero coupling.
	snets, err := rip.GenerateNets(&strip, 71, 1)
	if err != nil {
		t.Fatal(err)
	}
	j := rip.BatchJob{Net: snets[0], TargetMult: 1.3}
	got, want := m2.Solve(j), fresh.Solve(j)
	if got.Err != nil || want.Err != nil {
		t.Fatalf("post-restore solve: %v / %v", got.Err, want.Err)
	}
	if got.CacheHit {
		t.Fatal("post-restore solve claims a cache hit after a fully skipped restore")
	}
	sameLineResult(t, "decoupled", got, want)
}

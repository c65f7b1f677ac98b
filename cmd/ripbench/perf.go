package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	rip "github.com/rip-eda/rip"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/experiments"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/units"
)

// The -perf harness measures the repo's hot paths — the two-pin DP
// kernel (bounded solves and full Pareto-front sweeps, classic and
// crosstalk-coupled), the tree DP kernel and the batch engine on line,
// tree, mixed, multi-budget and coupled workloads — and writes a
// machine-readable report (BENCH_9.json in this PR's trajectory) so
// future PRs have a comparable perf baseline. The report also embeds
// the Figure-9 crosstalk study (pessimistic vs staggered power) and
// the Figure-10 bus co-optimization study (joint track groups vs
// independent worst-case sign-off), the coupling-era headline results.
// Absolute numbers are host-dependent; the committed file records the
// shape (allocs/solve must stay 0, cold-vs-warm ratios, front hit
// rates) and one host's trajectory point.
//
// Min-power kernels are measured on the production exact path (the
// bit-identical coarse-to-fine ladder); the `_flat` variant keeps the
// pre-ladder single-pass cost visible.

// perfKernel is one DP-kernel measurement: steady-state cost through a
// reused Solver plus the instance's work stats.
type perfKernel struct {
	Name           string  `json:"name"`
	NsPerSolve     float64 `json:"ns_per_solve"`
	AllocsPerSolve float64 `json:"allocs_per_solve"`
	BytesPerSolve  float64 `json:"bytes_per_solve"`
	Candidates     int     `json:"candidates"`
	Generated      int     `json:"generated"`
	Kept           int     `json:"kept"`
	MaxPerLevel    int     `json:"max_per_level"`
	// Points is a front kernel's Pareto-front size (0 for bounded solves).
	Points int `json:"points,omitempty"`
}

// perfBatch is one batch-engine measurement.
type perfBatch struct {
	Name        string  `json:"name"`
	Nets        int     `json:"nets"`
	Distinct    int     `json:"distinct"`
	Cache       string  `json:"cache"` // "cold" or "warm"
	Seconds     float64 `json:"seconds"`
	NetsPerSec  float64 `json:"nets_per_sec"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	// HitRate is hits/(hits+misses) for the phase — the front cache's
	// payoff, since every budget of a multi-budget job shares one lookup.
	HitRate float64 `json:"hit_rate"`
	// FrontLookups counts budget answers served by front lookup in the
	// phase (≥ nets for multi-budget workloads).
	FrontLookups uint64 `json:"front_lookups,omitempty"`
}

type perfReport struct {
	Schema      string       `json:"schema"`
	PR          int          `json:"pr"`
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	CPUs        int          `json:"cpus"`
	Kernel      []perfKernel `json:"kernel"`
	TreeKernel  []perfKernel `json:"tree_kernel"`
	Batch       []perfBatch  `json:"batch"`
	// Fig9 embeds the crosstalk study: per node, the power to close the
	// same absolute budgets under worst-case coupling with no
	// countermeasures versus with staggering allowed.
	Fig9 *experiments.Figure9Result `json:"fig9,omitempty"`
	// Fig10 embeds the bus study: per node, the group area and power
	// joint co-optimization saves over independent worst-case sign-off.
	Fig10 *experiments.Figure10Result `json:"fig10,omitempty"`
}

// perfEval reproduces the dp benchmark instance (the paperish 8mm
// three-segment net with a forbidden zone) via the public facade.
func perfEval() (*delay.Evaluator, error) {
	nets, err := rip.GenerateNets(rip.T180(), 2005, 20)
	if err != nil {
		return nil, err
	}
	return delay.NewEvaluator(nets[7], rip.T180())
}

func measureKernel(name string, ev *delay.Evaluator, opts dp.Options) (perfKernel, error) {
	s := dp.NewSolver()
	var sol dp.Solution
	// One untimed solve for the work stats (and to warm the arenas).
	if err := s.SolveInto(&sol, ev, opts); err != nil {
		return perfKernel{}, fmt.Errorf("%s: %w", name, err)
	}
	stats := sol.Stats
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.SolveInto(&sol, ev, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	return perfKernel{
		Name:           name,
		NsPerSolve:     float64(res.NsPerOp()),
		AllocsPerSolve: float64(res.AllocsPerOp()),
		BytesPerSolve:  float64(res.AllocedBytesPerOp()),
		Candidates:     stats.Candidates,
		Generated:      stats.Generated,
		Kept:           stats.Kept,
		MaxPerLevel:    stats.MaxPerLevel,
	}, nil
}

// measureFrontKernel measures the unbounded Pareto-front sweep — the
// engine's native cold-path solve, whose one run answers every budget.
func measureFrontKernel(name string, ev *delay.Evaluator, opts dp.Options) (perfKernel, error) {
	s := dp.NewSolver()
	front, stats, err := s.SolveFront(ev, opts)
	if err != nil {
		return perfKernel{}, fmt.Errorf("%s: %w", name, err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.SolveFront(ev, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	return perfKernel{
		Name:           name,
		NsPerSolve:     float64(res.NsPerOp()),
		AllocsPerSolve: float64(res.AllocsPerOp()),
		BytesPerSolve:  float64(res.AllocedBytesPerOp()),
		Candidates:     stats.Candidates,
		Generated:      stats.Generated,
		Kept:           stats.Kept,
		MaxPerLevel:    stats.MaxPerLevel,
		Points:         len(front),
	}, nil
}

// measureTreeFrontKernel measures the tree front sweep: the max-slack DP
// on a zero-RAT clone whose root front answers every uniform deadline.
func measureTreeFrontKernel(name string, tn *rip.TreeNet, lib rip.Library) (perfKernel, error) {
	ts := rip.T180()
	work := tn.Tree.CloneWithRAT(0)
	opts := rip.TreeOptions{Library: lib, Tech: ts, DriverWidth: tn.DriverWidth}
	s := tree.NewSolver()
	front, stats, err := s.InsertFront(work, opts)
	if err != nil {
		return perfKernel{}, fmt.Errorf("%s: %w", name, err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.InsertFront(work, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	return perfKernel{
		Name:           name,
		NsPerSolve:     float64(res.NsPerOp()),
		AllocsPerSolve: float64(res.AllocsPerOp()),
		BytesPerSolve:  float64(res.AllocedBytesPerOp()),
		Candidates:     stats.Candidates,
		Generated:      stats.Generated,
		Kept:           stats.Kept,
		MaxPerLevel:    stats.MaxPerNode,
		Points:         len(front),
	}, nil
}

// measureTreeKernel is measureKernel for the tree DP: steady-state cost
// of a reused tree.Solver on a fixed generated instance.
func measureTreeKernel(name string, tn *rip.TreeNet, lib rip.Library, target float64) (perfKernel, error) {
	ts := rip.T180()
	work := tn.Tree.CloneWithRAT(target)
	opts := rip.TreeOptions{Library: lib, Tech: ts, DriverWidth: tn.DriverWidth}
	s := tree.NewSolver()
	var sol tree.Solution
	if err := s.InsertInto(&sol, work, opts); err != nil {
		return perfKernel{}, fmt.Errorf("%s: %w", name, err)
	}
	stats := sol.Stats
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.InsertInto(&sol, work, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	return perfKernel{
		Name:           name,
		NsPerSolve:     float64(res.NsPerOp()),
		AllocsPerSolve: float64(res.AllocsPerOp()),
		BytesPerSolve:  float64(res.AllocedBytesPerOp()),
		Candidates:     stats.Candidates,
		Generated:      stats.Generated,
		Kept:           stats.Kept,
		MaxPerLevel:    stats.MaxPerNode,
	}, nil
}

// measureTreeHybrid measures the full tree pipeline (coarse DP → width
// refinement → concise-library DP) through a reused Solver.
func measureTreeHybrid(name string, tn *rip.TreeNet, target float64) (perfKernel, error) {
	ts := rip.T180()
	work := tn.Tree.CloneWithRAT(target)
	opts := rip.TreeOptions{Tech: ts, DriverWidth: tn.DriverWidth}
	s := tree.NewSolver()
	out, err := tree.InsertHybridWith(s, work, opts, tree.HybridConfig{})
	if err != nil {
		return perfKernel{}, fmt.Errorf("%s: %w", name, err)
	}
	stats := out.Coarse.Stats
	stats.Candidates += out.Final.Stats.Candidates
	stats.Generated += out.Final.Stats.Generated
	stats.Kept += out.Final.Stats.Kept
	if out.Final.Stats.MaxPerNode > stats.MaxPerNode {
		stats.MaxPerNode = out.Final.Stats.MaxPerNode
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tree.InsertHybridWith(s, work, opts, tree.HybridConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	return perfKernel{
		Name:           name,
		NsPerSolve:     float64(res.NsPerOp()),
		AllocsPerSolve: float64(res.AllocsPerOp()),
		BytesPerSolve:  float64(res.AllocedBytesPerOp()),
		Candidates:     stats.Candidates,
		Generated:      stats.Generated,
		Kept:           stats.Kept,
		MaxPerLevel:    stats.MaxPerNode,
	}, nil
}

// batchJobs tiles the given workload kinds to total jobs: "line", "tree"
// or "mixed" (1:1 interleave).
func batchJobs(kind string, distinct, total int) ([]rip.BatchJob, error) {
	tech := rip.T180()
	jobs := make([]rip.BatchJob, total)
	switch kind {
	case "line":
		nets, err := rip.GenerateNets(tech, 2005, distinct)
		if err != nil {
			return nil, err
		}
		for i := range jobs {
			jobs[i] = rip.BatchJob{Net: nets[i%distinct], TargetMult: 1.3}
		}
	case "line_coupled":
		// The line workload under worst-case aggressors with staggering
		// allowed; coupled entries cache under their own signatures.
		nets, err := rip.GenerateNets(tech, 2005, distinct)
		if err != nil {
			return nil, err
		}
		sc, err := rip.ParseScenario("worst", "staggered", nil)
		if err != nil {
			return nil, err
		}
		for i := range jobs {
			jobs[i] = rip.BatchJob{Net: nets[i%distinct], TargetMult: 1.3, Scenario: sc}
		}
	case "tree":
		nets, err := rip.GenerateTreeNets(tech, 2005, distinct)
		if err != nil {
			return nil, err
		}
		for i := range jobs {
			jobs[i] = rip.BatchJob{TreeNet: nets[i%distinct], TargetMult: 1.3}
		}
	case "multibudget":
		// A 10-step absolute ladder per net, spanning 1.3×–2.8×τmin: every
		// budget is feasible for this corpus, so the warm phase measures
		// pure front lookups — an infeasible budget would reject the whole
		// entry and re-solve (infeasibility is never served from cache).
		nets, err := rip.GenerateNets(tech, 2005, distinct)
		if err != nil {
			return nil, err
		}
		ladders := make([][]float64, distinct)
		for i, n := range nets {
			tmin, err := rip.MinimumDelay(n, tech)
			if err != nil {
				return nil, err
			}
			l := make([]float64, 10)
			for k := range l {
				l[k] = (1.3 + 0.17*float64(k)) * tmin
			}
			ladders[i] = l
		}
		for i := range jobs {
			jobs[i] = rip.BatchJob{Net: nets[i%distinct], Budgets: ladders[i%distinct]}
		}
	case "mixed":
		lines, err := rip.GenerateNets(tech, 2005, distinct)
		if err != nil {
			return nil, err
		}
		trees, err := rip.GenerateTreeNets(tech, 2005, distinct)
		if err != nil {
			return nil, err
		}
		for i := range jobs {
			if i%2 == 0 {
				jobs[i] = rip.BatchJob{Net: lines[(i/2)%distinct], TargetMult: 1.3}
			} else {
				jobs[i] = rip.BatchJob{TreeNet: trees[(i/2)%distinct], TargetMult: 1.3}
			}
		}
	default:
		return nil, fmt.Errorf("unknown batch kind %q", kind)
	}
	return jobs, nil
}

func measureBatch(name, kind string, distinct, total int) ([]perfBatch, error) {
	tech := rip.T180()
	jobs, err := batchJobs(kind, distinct, total)
	if err != nil {
		return nil, err
	}
	eng, err := rip.NewEngine(tech, rip.EngineOptions{})
	if err != nil {
		return nil, err
	}
	var out []perfBatch
	for _, phase := range []string{"cold", "warm"} {
		start := time.Now()
		for _, r := range eng.Run(jobs) {
			if r.Err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, phase, r.Err)
			}
		}
		dur := time.Since(start)
		st := eng.CacheStats()
		fs := eng.FrontStats()
		out = append(out, perfBatch{
			Name:       name + "_" + phase,
			Nets:       total,
			Distinct:   distinct,
			Cache:      phase,
			Seconds:    dur.Seconds(),
			NetsPerSec: float64(total) / dur.Seconds(),
			// Counters are cumulative across phases; report the deltas.
			CacheHits:    st.Hits,
			CacheMisses:  st.Misses,
			FrontLookups: fs.Lookups,
		})
	}
	// Convert cumulative cache counters into per-phase deltas.
	if len(out) == 2 {
		out[1].CacheHits -= out[0].CacheHits
		out[1].CacheMisses -= out[0].CacheMisses
		out[1].FrontLookups -= out[0].FrontLookups
	}
	for i := range out {
		if n := out[i].CacheHits + out[i].CacheMisses; n > 0 {
			out[i].HitRate = float64(out[i].CacheHits) / float64(n)
		}
	}
	return out, nil
}

// runPerf executes the perf harness and writes the JSON report to path
// ("-" for stdout).
func runPerf(path string) error {
	ev, err := perfEval()
	if err != nil {
		return err
	}
	refLib, err := repeater.Range(10, 400, 10)
	if err != nil {
		return err
	}
	midLib, err := repeater.Range(10, 400, 20)
	if err != nil {
		return err
	}
	coarseLib, err := repeater.Range(10, 400, 40)
	if err != nil {
		return err
	}
	tmin, err := dp.MinimumDelay(ev, dp.Options{Library: refLib, Pitch: 200 * units.Micron})
	if err != nil {
		return err
	}
	// Coupled kernels price worst-case aggressors with staggering on the
	// menu — the engine's hot path for crosstalk-aware requests. Their
	// target is 1.3× the coupled τmin (the uncoupled one may be
	// unreachable once neighbors switch against the victim).
	cpl, err := delay.NewCoupling(rip.T180(), delay.AggressorWorst, delay.SchemeModeStaggered)
	if err != nil {
		return err
	}
	cplTMin, err := dp.MinimumDelay(ev, dp.Options{Library: refLib, Pitch: 200 * units.Micron, Coupling: cpl})
	if err != nil {
		return err
	}

	rep := perfReport{
		Schema:      "rip-perf/1",
		PR:          10,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
	}

	// Bounded kernels run the production exact path (Ladder — value-
	// identical to the flat sweep); the `_flat` variant keeps the pre-
	// ladder cost visible.
	kernels := []struct {
		name string
		opts dp.Options
	}{
		{"solve_minpower_g10", dp.Options{Library: refLib, Pitch: 200 * units.Micron, Objective: dp.MinPower, Target: 1.3 * tmin, Ladder: true}},
		{"solve_minpower_g10_flat", dp.Options{Library: refLib, Pitch: 200 * units.Micron, Objective: dp.MinPower, Target: 1.3 * tmin}},
		{"solve_minpower_g20", dp.Options{Library: midLib, Pitch: 200 * units.Micron, Objective: dp.MinPower, Target: 1.3 * tmin, Ladder: true}},
		{"solve_minpower_g40", dp.Options{Library: coarseLib, Pitch: 200 * units.Micron, Objective: dp.MinPower, Target: 1.3 * tmin, Ladder: true}},
		{"solve_mindelay_g10", dp.Options{Library: refLib, Pitch: 200 * units.Micron, Objective: dp.MinDelay}},
		{"solve_minpower_g10_coupled", dp.Options{Library: refLib, Pitch: 200 * units.Micron, Objective: dp.MinPower, Target: 1.3 * cplTMin, Ladder: true, Coupling: cpl}},
	}
	for _, k := range kernels {
		m, err := measureKernel(k.name, ev, k.opts)
		if err != nil {
			return err
		}
		rep.Kernel = append(rep.Kernel, m)
		fmt.Fprintf(os.Stderr, "perf: %-22s %12.0f ns/solve  %6.1f allocs/solve\n", m.Name, m.NsPerSolve, m.AllocsPerSolve)
	}

	// Front kernels: the unbounded Pareto sweep at both granularities —
	// the cold cost the front-native cache pays once per shape. Ladder
	// matches the engine's production front path.
	for _, k := range []struct {
		name string
		opts dp.Options
	}{
		{"solve_front_g10", dp.Options{Library: refLib, Pitch: 200 * units.Micron, Ladder: true}},
		{"solve_front_g40", dp.Options{Library: coarseLib, Pitch: 200 * units.Micron, Ladder: true}},
		{"solve_front_g10_coupled", dp.Options{Library: refLib, Pitch: 200 * units.Micron, Ladder: true, Coupling: cpl}},
	} {
		m, err := measureFrontKernel(k.name, ev, k.opts)
		if err != nil {
			return err
		}
		rep.Kernel = append(rep.Kernel, m)
		fmt.Fprintf(os.Stderr, "perf: %-22s %12.0f ns/solve  %6.1f allocs/solve  %4d points\n",
			m.Name, m.NsPerSolve, m.AllocsPerSolve, m.Points)
	}

	// Tree kernels: the reusable tree.Solver on the benchmark 8-sink
	// instance, at the reference and coarse libraries, plus the full
	// hybrid pipeline cost.
	treeNets, err := rip.GenerateTreeNets(rip.T180(), 2005, 1)
	if err != nil {
		return err
	}
	tn := treeNets[0]
	treeTMin, err := rip.TreeMinimumDelay(tn, rip.T180())
	if err != nil {
		return err
	}
	coarseTreeLib, err := rip.UniformLibrary(80, 80, 5)
	if err != nil {
		return err
	}
	for _, k := range []struct {
		name string
		lib  rip.Library
	}{
		{"tree_insert_g10", refLib},
		{"tree_insert_coarse", coarseTreeLib},
	} {
		m, err := measureTreeKernel(k.name, tn, k.lib, 1.3*treeTMin)
		if err != nil {
			return err
		}
		rep.TreeKernel = append(rep.TreeKernel, m)
		fmt.Fprintf(os.Stderr, "perf: %-20s %12.0f ns/solve  %6.1f allocs/solve\n", m.Name, m.NsPerSolve, m.AllocsPerSolve)
	}
	hybrid, err := measureTreeHybrid("tree_hybrid", tn, 1.3*treeTMin)
	if err != nil {
		return err
	}
	rep.TreeKernel = append(rep.TreeKernel, hybrid)
	fmt.Fprintf(os.Stderr, "perf: %-20s %12.0f ns/solve  %6.1f allocs/solve\n", hybrid.Name, hybrid.NsPerSolve, hybrid.AllocsPerSolve)
	treeFront, err := measureTreeFrontKernel("tree_front_coarse", tn, coarseTreeLib)
	if err != nil {
		return err
	}
	rep.TreeKernel = append(rep.TreeKernel, treeFront)
	fmt.Fprintf(os.Stderr, "perf: %-20s %12.0f ns/solve  %6.1f allocs/solve  %4d points\n",
		treeFront.Name, treeFront.NsPerSolve, treeFront.AllocsPerSolve, treeFront.Points)

	for _, b := range []struct {
		name, kind      string
		distinct, total int
	}{
		{"batch_1k", "line", 100, 1000},
		{"batch_10k", "line", 250, 10000},
		{"batch_tree_1k", "tree", 100, 1000},
		{"batch_mixed_1k", "mixed", 50, 1000},
		{"batch_multibudget_1k", "multibudget", 100, 1000},
		{"batch_coupled_1k", "line_coupled", 100, 1000},
	} {
		ms, err := measureBatch(b.name, b.kind, b.distinct, b.total)
		if err != nil {
			return err
		}
		rep.Batch = append(rep.Batch, ms...)
		for _, m := range ms {
			fmt.Fprintf(os.Stderr, "perf: %-20s %10.0f nets/s (%d nets, %s cache)\n", m.Name, m.NetsPerSec, m.Nets, m.Cache)
		}
	}

	fig9, err := experiments.Figure9(2005, 6)
	if err != nil {
		return err
	}
	rep.Fig9 = fig9
	for _, row := range fig9.Rows {
		fmt.Fprintf(os.Stderr, "perf: fig9 %-8s plain %.3f mW  staggered %.3f mW  saved %.1f%%\n",
			row.Tech, row.AvgPowerPlainMW, row.AvgPowerStagMW, row.SavingsPct)
	}

	fig10, err := experiments.Figure10(2005, 6)
	if err != nil {
		return err
	}
	rep.Fig10 = fig10
	for _, row := range fig10.Rows {
		fmt.Fprintf(os.Stderr, "perf: fig10 %-8s indep %.1fu  coord %.1fu  saved %.1f%%\n",
			row.Tech, row.BaselineWidthU, row.CoordWidthU, row.SavingsPct)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

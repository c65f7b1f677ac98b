package dp

import (
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// benchEval builds the paper-ish 8mm three-segment net the dp unit tests
// use, so kernel benchmarks and correctness tests exercise the same shape.
func benchEval(b *testing.B) *delay.Evaluator {
	b.Helper()
	line, err := wire.New([]wire.Segment{
		{Length: 2.5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
		{Length: 3.0e-3, ROhmPerM: 6e4, CFPerM: 2.1e-10, Layer: "metal5"},
		{Length: 2.5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, Layer: "metal4"},
	}, []wire.Zone{{Start: 3.4e-3, End: 5.0e-3}})
	if err != nil {
		b.Fatal(err)
	}
	ev, err := delay.NewEvaluator(&wire.Net{Name: "bench", Line: line, DriverWidth: 120, ReceiverWidth: 60}, tech.T180())
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// benchCoupledEval is benchEval's crosstalk twin: the same 8mm net with
// T180's per-layer coupling densities on every segment.
func benchCoupledEval(b *testing.B) *delay.Evaluator {
	b.Helper()
	line, err := wire.New([]wire.Segment{
		{Length: 2.5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, CcFPerM: 1.6e-10, Layer: "metal4"},
		{Length: 3.0e-3, ROhmPerM: 6e4, CFPerM: 2.1e-10, CcFPerM: 1.4e-10, Layer: "metal5"},
		{Length: 2.5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, CcFPerM: 1.6e-10, Layer: "metal4"},
	}, []wire.Zone{{Start: 3.4e-3, End: 5.0e-3}})
	if err != nil {
		b.Fatal(err)
	}
	ev, err := delay.NewEvaluator(&wire.Net{Name: "bench-coupled", Line: line, DriverWidth: 120, ReceiverWidth: 60}, tech.T180())
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

func benchOpts(b *testing.B, ev *delay.Evaluator, g float64, objective Objective) Options {
	b.Helper()
	lib, err := repeater.Range(10, 400, g)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Library: lib, Pitch: 200 * units.Micron, Objective: objective}
	if objective == MinPower {
		tmin, err := MinimumDelay(ev, Options{Library: lib, Pitch: 200 * units.Micron})
		if err != nil {
			b.Fatal(err)
		}
		opts.Target = 1.3 * tmin
	}
	return opts
}

// benchmarkSolve measures the steady-state kernel cost: one warm Solver,
// one reused Solution, repeated SolveInto — the shape batch workers run.
// Steady state performs zero heap allocations.
func benchmarkSolve(b *testing.B, g float64, objective Objective, mut ...func(*Options)) {
	ev := benchEval(b)
	opts := benchOpts(b, ev, g, objective)
	for _, m := range mut {
		m(&opts)
	}
	s := NewSolver()
	var sol Solution
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveInto(&sol, ev, opts); err != nil {
			b.Fatal(err)
		}
		if !sol.Feasible {
			b.Fatal("benchmark instance must be feasible")
		}
	}
}

func BenchmarkSolve(b *testing.B)          { benchmarkSolve(b, 10, MinPower) }
func BenchmarkSolve_g40(b *testing.B)      { benchmarkSolve(b, 40, MinPower) }
func BenchmarkSolve_MinDelay(b *testing.B) { benchmarkSolve(b, 10, MinDelay) }

// BenchmarkSolveLadder measures the exact-mode coarse-to-fine ladder: same
// bit-identical answers, coarse-pass bounds pruning the fine sweep.
func BenchmarkSolveLadder(b *testing.B) {
	benchmarkSolve(b, 10, MinPower, func(o *Options) { o.Ladder = true })
}

// BenchmarkSolveEps measures the relaxed mode the engine serves when a
// request opts in: ladder plus ε-dominance at the recommended DefaultEps.
func BenchmarkSolveEps(b *testing.B) {
	benchmarkSolve(b, 10, MinPower, func(o *Options) { o.Ladder = true; o.Eps = DefaultEps })
}

// BenchmarkSolveCoupled_g10 measures the crosstalk-aware kernel the
// engine runs for coupled requests: worst-case aggressors, staggering on
// the menu, min-power at 1.3× the coupled τmin through the production
// ladder. The per-scheme candidate generation roughly doubles the
// branching of the classic kernel; steady state amortizes to zero
// allocations the same way the classic kernel does.
func BenchmarkSolveCoupled_g10(b *testing.B) {
	ev := benchCoupledEval(b)
	lib, err := repeater.Range(10, 400, 10)
	if err != nil {
		b.Fatal(err)
	}
	cpl, err := delay.NewCoupling(tech.T180(), delay.AggressorWorst, delay.SchemeModeStaggered)
	if err != nil {
		b.Fatal(err)
	}
	base := Options{Library: lib, Pitch: 200 * units.Micron, Coupling: cpl}
	tmin, err := MinimumDelay(ev, base)
	if err != nil {
		b.Fatal(err)
	}
	opts := base
	opts.Objective = MinPower
	opts.Target = 1.3 * tmin
	opts.Ladder = true
	s := NewSolver()
	var sol Solution
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SolveInto(&sol, ev, opts); err != nil {
			b.Fatal(err)
		}
		if !sol.Feasible {
			b.Fatal("benchmark instance must be feasible")
		}
	}
}

// BenchmarkSolvePooled measures the package-level convenience entry point
// (pool acquire + fresh result Solution per call) for comparison with the
// raw kernel above.
func BenchmarkSolvePooled(b *testing.B) {
	ev := benchEval(b)
	opts := benchOpts(b, ev, 10, MinPower)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := Solve(ev, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Feasible {
			b.Fatal("benchmark instance must be feasible")
		}
	}
}

// benchmarkSolveFront measures the engine's native front solve: one
// unbounded width-aware sweep over the space engine.frontOptions builds
// (library 10–400 µ in steps of 40, 200 µm pitch, ladder on). Most of its
// time goes to the per-level repeater-bucket sorts.
func benchmarkSolveFront(b *testing.B, ev *delay.Evaluator, cpl *delay.Coupling) {
	lib, err := repeater.Range(10, 400, 40)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Library: lib, Pitch: 200 * units.Micron, Ladder: true, Coupling: cpl}
	s := NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front, _, err := s.SolveFront(ev, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(front) == 0 {
			b.Fatal("benchmark front must not be empty")
		}
	}
}

func BenchmarkSolveFront_g40Ladder(b *testing.B) {
	benchmarkSolveFront(b, benchEval(b), nil)
}

// BenchmarkSolveFrontCoupled_g40Ladder is the crosstalk twin: the same
// front space under worst-case aggressors with staggering on the menu.
func BenchmarkSolveFrontCoupled_g40Ladder(b *testing.B) {
	cpl, err := delay.NewCoupling(tech.T180(), delay.AggressorWorst, delay.SchemeModeStaggered)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkSolveFront(b, benchCoupledEval(b), cpl)
}

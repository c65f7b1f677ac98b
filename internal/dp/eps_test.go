package dp

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// fpSlack absorbs accumulated float rounding when checking certified
// bounds that are proved in real arithmetic.
const fpSlack = 1e-9

// nodeEval builds the paperish evaluator on an arbitrary technology node.
func nodeEval(t *testing.T, tc *tech.Technology) *delay.Evaluator {
	t.Helper()
	ev, err := delay.NewEvaluator(&wire.Net{Name: "t", Line: paperishLine(t), DriverWidth: 120, ReceiverWidth: 60}, tc)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// sameValues compares the parts of two Solutions the ladder guarantees
// bit-identical: feasibility, delay and total width. (Work Stats differ
// by design — the coarse pass folds in — and assignments may differ only
// on exact value ties, where both are equally optimal.)
func sameValues(t *testing.T, name string, got, want Solution) {
	t.Helper()
	if got.Feasible != want.Feasible {
		t.Fatalf("%s: feasible %v, want %v", name, got.Feasible, want.Feasible)
	}
	if got.Delay != want.Delay {
		t.Fatalf("%s: delay %v, want %v", name, got.Delay, want.Delay)
	}
	if got.TotalWidth != want.TotalWidth {
		t.Fatalf("%s: total width %v, want %v", name, got.TotalWidth, want.TotalWidth)
	}
}

// TestLadderMatchesExactCorpus pins the ladder's contract on the
// deterministic corpus: identical feasibility, delay and width, with a
// still-valid assignment, in both the bounded and the front solver.
func TestLadderMatchesExactCorpus(t *testing.T) {
	s, sl := NewSolver(), NewSolver()
	for _, c := range corpusInstances(t) {
		lopts := c.opts
		lopts.Ladder = true
		want, wantErr := s.Solve(c.ev, c.opts)
		got, gotErr := sl.Solve(c.ev, lopts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: error mismatch: %v vs %v", c.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		sameValues(t, c.name, got, want)
		if got.Feasible {
			if err := c.ev.Validate(got.Assignment); err != nil {
				t.Fatalf("%s: ladder assignment invalid: %v", c.name, err)
			}
		}
		if got.Stats.EpsPruned != 0 {
			t.Fatalf("%s: exact ladder run reported %d ε-prunes", c.name, got.Stats.EpsPruned)
		}

		// Front mode: the ladder must reproduce the exact front's point
		// values exactly.
		wf, _, wantErr := s.SolveFront(c.ev, c.opts)
		gf, gst, gotErr := sl.SolveFront(c.ev, lopts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s front: error mismatch: %v vs %v", c.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if len(gf) != len(wf) {
			t.Fatalf("%s front: %d points with ladder, %d without", c.name, len(gf), len(wf))
		}
		for i := range gf {
			if gf[i].Delay != wf[i].Delay || gf[i].TotalWidth != wf[i].TotalWidth {
				t.Fatalf("%s front point %d: (%v, %v) with ladder, (%v, %v) without",
					c.name, i, gf[i].Delay, gf[i].TotalWidth, wf[i].Delay, wf[i].TotalWidth)
			}
			if err := c.ev.Validate(gf[i].Assignment); err != nil {
				t.Fatalf("%s front point %d invalid: %v", c.name, i, err)
			}
		}
		if gst.EpsPruned != 0 {
			t.Fatalf("%s front: exact ladder run reported %d ε-prunes", c.name, gst.EpsPruned)
		}
	}
}

// TestLadderMatchesExactRandom is the randomized rendering of the ladder
// differential, including the tie-heavy libraries where representative
// selection is most fragile.
func TestLadderMatchesExactRandom(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 80
	}
	rng := rand.New(rand.NewSource(42))
	s, sl := NewSolver(), NewSolver()
	for trial := 0; trial < trials; trial++ {
		ev, opts := randomInstance(t, rng)
		lopts := opts
		lopts.Ladder = true
		want, wantErr := s.Solve(ev, opts)
		got, gotErr := sl.Solve(ev, lopts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		sameValues(t, "trial", got, want)
		if got.Feasible {
			if err := ev.Validate(got.Assignment); err != nil {
				t.Fatalf("trial %d: ladder assignment invalid: %v", trial, err)
			}
		}
	}
}

// checkCertifiedFront asserts the ε-front's certificate against the exact
// front: for every exact point (D, W) the relaxed front must answer the
// budget D·fac with width ≤ W, where fac is the run's realized delay
// inflation (Stats.EpsFactor) — the tightened per-run certificate, not
// just the worst-case 1+eps.
func checkCertifiedFront(t *testing.T, name string, exact, relaxed Front, eps, fac float64) {
	t.Helper()
	for _, p := range exact {
		target := p.Delay * fac * (1 + fpSlack)
		i, ok := relaxed.At(target)
		if !ok {
			t.Fatalf("%s: ε-front answers no budget ≤ %v (exact point delay %v, eps %v, fac %v)",
				name, target, p.Delay, eps, fac)
		}
		if relaxed[i].TotalWidth > p.TotalWidth {
			t.Fatalf("%s: ε-front width %v at budget %v exceeds exact width %v (eps %v, fac %v)",
				name, relaxed[i].TotalWidth, target, p.TotalWidth, eps, fac)
		}
	}
}

// TestEpsFrontWithinCertifiedBound pins the ε-dominance certificate on
// every built-in technology node and a randomized net set: every relaxed
// front point is a real feasible assignment, and the relaxed curve is
// within the certified (1+ε) delay factor of the exact one — so a served
// budget's power never exceeds the exact optimum at the deflated budget.
func TestEpsFrontWithinCertifiedBound(t *testing.T) {
	s, se := NewSolver(), NewSolver()
	epsValues := []float64{0.005, 0.02, 0.1}
	check := func(name string, ev *delay.Evaluator, opts Options) {
		t.Helper()
		exact, _, err := s.SolveFront(ev, opts)
		if err != nil {
			t.Fatalf("%s: exact front: %v", name, err)
		}
		for _, eps := range epsValues {
			for _, ladder := range []bool{false, true} {
				eopts := opts
				eopts.Eps = eps
				eopts.Ladder = ladder
				relaxed, st, err := se.SolveFront(ev, eopts)
				if err != nil {
					t.Fatalf("%s eps=%v ladder=%v: %v", name, eps, ladder, err)
				}
				if len(relaxed) == 0 && len(exact) > 0 {
					t.Fatalf("%s eps=%v: relaxed front empty", name, eps)
				}
				if len(relaxed) > len(exact) {
					t.Fatalf("%s eps=%v: relaxed front larger than exact (%d > %d)",
						name, eps, len(relaxed), len(exact))
				}
				for i := range relaxed {
					if err := ev.Validate(relaxed[i].Assignment); err != nil {
						t.Fatalf("%s eps=%v point %d invalid: %v", name, eps, i, err)
					}
					if w := relaxed[i].Assignment.TotalWidth(); w != relaxed[i].TotalWidth {
						t.Fatalf("%s eps=%v point %d: stated width %v, assignment sums to %v",
							name, eps, i, relaxed[i].TotalWidth, w)
					}
				}
				fac := st.EpsFactor(eps)
				if fac < 1 || fac > 1+eps {
					t.Fatalf("%s eps=%v: EpsFactor %v outside [1, %v]", name, eps, fac, 1+eps)
				}
				if (st.EpsLevels == 0) != (st.EpsPruned == 0) {
					t.Fatalf("%s eps=%v: EpsLevels %d inconsistent with EpsPruned %d",
						name, eps, st.EpsLevels, st.EpsPruned)
				}
				if st.EpsLevels > st.Candidates || st.EpsLevels > st.EpsPruned {
					t.Fatalf("%s eps=%v: EpsLevels %d exceeds Candidates %d or EpsPruned %d",
						name, eps, st.EpsLevels, st.Candidates, st.EpsPruned)
				}
				checkCertifiedFront(t, name, exact, relaxed, eps, fac)
				if st.EpsPruned < 0 {
					t.Fatalf("%s: negative EpsPruned %d", name, st.EpsPruned)
				}
			}
		}
	}

	for _, tc := range []*tech.Technology{tech.T180(), tech.T130(), tech.T90(), tech.T65()} {
		ev := nodeEval(t, tc)
		check(tc.Name, ev, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron})
	}
	rng := rand.New(rand.NewSource(9))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		ev, opts := randomInstance(t, rng)
		opts.Objective = MinPower // front ignores it; keep instances width-aware
		check("random", ev, opts)
	}
}

// TestEpsActuallyPrunes guards against the relaxation silently degrading
// to exact: on the fine-granularity paperish net a 10% ε must kill a
// measurable number of exactly-Pareto-optimal options.
func TestEpsActuallyPrunes(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	opts := Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron, Eps: 0.1}
	s := NewSolver()
	_, st, err := s.SolveFront(ev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.EpsPruned == 0 {
		t.Fatal("eps=0.1 front solve reported zero ε-prunes on the g10 paperish net")
	}
	exopts := opts
	exopts.Eps = 0
	_, est, err := s.SolveFront(ev, exopts)
	if err != nil {
		t.Fatal(err)
	}
	if !(st.Kept < est.Kept) {
		t.Fatalf("ε run kept %d options, exact kept %d — relaxation should shrink fronts", st.Kept, est.Kept)
	}
}

// TestEpsBoundedSolve pins the bounded-mode certificate: an ε solve at
// target T is always delay-feasible at T, succeeds whenever the exact
// solver succeeds at T/(1+ε), and never spends more width than the exact
// optimum at T/(1+ε).
func TestEpsBoundedSolve(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	l := lib(t, 10, 10, 40)
	tmin, err := MinimumDelay(ev, Options{Library: l, Pitch: 200 * units.Micron})
	if err != nil {
		t.Fatal(err)
	}
	s, se := NewSolver(), NewSolver()
	for _, eps := range []float64{0.005, 0.02, 0.1} {
		for _, mult := range []float64{1.02, 1.05, 1.2, 1.5, 2.5} {
			for _, ladder := range []bool{false, true} {
				target := mult * tmin
				eopts := Options{
					Library: l, Pitch: 200 * units.Micron,
					Objective: MinPower, Target: target,
					Eps: eps, Ladder: ladder,
				}
				relaxed, err := se.Solve(ev, eopts)
				if err != nil {
					t.Fatal(err)
				}
				deflated := target * (1 - fpSlack) / (1 + eps)
				exact, err := s.Solve(ev, Options{
					Library: l, Pitch: 200 * units.Micron,
					Objective: MinPower, Target: deflated,
				})
				if err != nil {
					t.Fatal(err)
				}
				name := "eps solve"
				if relaxed.Feasible {
					if relaxed.Delay > target {
						t.Fatalf("%s: delay %v exceeds target %v (eps %v): infeasibility introduced",
							name, relaxed.Delay, target, eps)
					}
					if err := ev.Validate(relaxed.Assignment); err != nil {
						t.Fatalf("%s: invalid assignment: %v", name, err)
					}
				}
				if exact.Feasible {
					if !relaxed.Feasible {
						t.Fatalf("%s: infeasible at %v though exact solves %v (eps %v, ladder %v)",
							name, target, deflated, eps, ladder)
					}
					if relaxed.TotalWidth > exact.TotalWidth {
						t.Fatalf("%s: width %v exceeds certified bound %v (eps %v, ladder %v)",
							name, relaxed.TotalWidth, exact.TotalWidth, eps, ladder)
					}
				}
			}
		}
	}
}

// TestEpsValidation pins the knob's range contract at the kernel boundary.
func TestEpsValidation(t *testing.T) {
	ev := evalFor(t, paperishLine(t))
	l := lib(t, 10, 40, 10)
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.01, MaxEps * 1.01, 7} {
		opts := Options{Library: l, Pitch: 200 * units.Micron, Objective: MinPower, Target: 1e-9, Eps: eps}
		if _, err := Solve(ev, opts); err == nil {
			t.Errorf("Solve accepted eps=%v", eps)
		}
		if _, _, err := SolveFront(ev, opts); err == nil {
			t.Errorf("SolveFront accepted eps=%v", eps)
		}
	}
	// The boundary values themselves are legal.
	for _, eps := range []float64{0, MaxEps} {
		opts := Options{Library: l, Pitch: 200 * units.Micron, Objective: MinPower, Target: 1e-9, Eps: eps}
		if _, err := Solve(ev, opts); err != nil {
			t.Errorf("Solve rejected eps=%v: %v", eps, err)
		}
	}
}

// FuzzEpsSolve asserts error-or-bounded on arbitrary ε: invalid knob
// values must be rejected, valid ones must keep every certificate.
func FuzzEpsSolve(f *testing.F) {
	f.Add(0.02, 1.3, true)
	f.Add(0.0, 1.1, false)
	f.Add(-1.0, 1.5, true)
	f.Add(math.NaN(), 1.2, false)
	f.Add(math.Inf(1), 0.9, true)
	f.Add(0.5, 2.0, false)
	f.Add(1e300, 1.4, true)
	f.Fuzz(func(t *testing.T, eps, mult float64, ladder bool) {
		ev := evalFor(t, paperishLine(t))
		l := lib(t, 20, 60, 6)
		opts := Options{Library: l, Pitch: 400 * units.Micron}
		tmin, err := MinimumDelay(ev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(mult) || !(mult > 0.5) || mult > 8 {
			mult = 1.3
		}
		target := mult * tmin
		opts.Objective = MinPower
		opts.Target = target
		opts.Eps = eps
		opts.Ladder = ladder
		relaxed, err := Solve(ev, opts)
		if !validEps(eps) {
			if err == nil {
				t.Fatalf("invalid eps %v accepted", eps)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid eps %v rejected: %v", eps, err)
		}
		exopts := opts
		exopts.Eps = 0
		exopts.Ladder = false
		exopts.Target = target * (1 - fpSlack) / (1 + eps)
		exact, err := Solve(ev, exopts)
		if err != nil {
			t.Fatal(err)
		}
		if relaxed.Feasible {
			if relaxed.Delay > target {
				t.Fatalf("delay %v exceeds target %v at eps %v", relaxed.Delay, target, eps)
			}
			if err := ev.Validate(relaxed.Assignment); err != nil {
				t.Fatalf("invalid assignment at eps %v: %v", eps, err)
			}
		}
		if exact.Feasible {
			if !relaxed.Feasible {
				t.Fatalf("eps %v infeasible at %v though exact solves %v", eps, target, exopts.Target)
			}
			if relaxed.TotalWidth > exact.TotalWidth {
				t.Fatalf("eps %v width %v exceeds certified bound %v", eps, relaxed.TotalWidth, exact.TotalWidth)
			}
		}
	})
}

// TestParallelPruneStress hammers the intra-net parallel prune from many
// concurrent solvers (run with -race in CI): every parallel schedule must
// reproduce the serial solve bit-exactly — assignments and work stats
// included — and the worker-budget hooks must never deadlock. The mix
// includes a laddered front solve and a coupled solve, whose wide
// repeater buckets exercise each reducer's own bucket-sort scratch.
func TestParallelPruneStress(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	type inst struct {
		ev        *delay.Evaluator
		opts      Options
		front     bool // SolveFront instead of SolveInto
		want      Solution
		wantFront Front
	}
	var instances []inst
	s := NewSolver()
	ev := evalFor(t, paperishLine(t))
	tmin, err := MinimumDelay(ev, Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron})
	if err != nil {
		t.Fatal(err)
	}
	cev := evalFor(t, coupledPaperishLine(t))
	cpl, err := delay.NewCoupling(tech.T180(), delay.AggressorWorst, delay.SchemeModeStaggered)
	if err != nil {
		t.Fatal(err)
	}
	ctmin, err := MinimumDelay(cev, Options{Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron, Coupling: cpl})
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances,
		inst{ev: ev, opts: Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron, Objective: MinPower, Target: 1.3 * tmin}},
		inst{ev: ev, opts: Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron, Objective: MinDelay}},
		inst{ev: ev, opts: Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron, Objective: MinPower, Target: 1.2 * tmin, Ladder: true, Eps: DefaultEps}},
		inst{ev: ev, opts: Options{Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron, Ladder: true}, front: true},
		inst{ev: cev, opts: Options{Library: lib(t, 10, 40, 10), Pitch: 200 * units.Micron, Objective: MinPower, Target: 1.3 * ctmin, Ladder: true, Coupling: cpl}},
	)
	for trial := 0; trial < 12; trial++ {
		rev, ropts := randomInstance(t, rng)
		instances = append(instances, inst{ev: rev, opts: ropts})
	}
	for i := range instances {
		in := &instances[i]
		if in.front {
			in.wantFront, _, err = s.SolveFront(in.ev, in.opts)
		} else {
			in.want, err = s.Solve(in.ev, in.opts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	// A bounded shared worker budget, the shape the engine passes in.
	slots := make(chan struct{}, 3)
	acquire := func() bool {
		select {
		case slots <- struct{}{}:
			return true
		default:
			return false
		}
	}
	release := func() { <-slots }

	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ps := NewSolver()
			var sol Solution
			for round := 0; round < 3; round++ {
				for i := range instances {
					popts := instances[i].opts
					popts.Parallel = 8
					popts.ParallelThreshold = 1
					if g%2 == 0 {
						popts.AcquireWorker = acquire
						popts.ReleaseWorker = release
					}
					if instances[i].front {
						got, _, err := ps.SolveFront(instances[i].ev, popts)
						if err != nil {
							t.Errorf("goroutine %d inst %d: %v", g, i, err)
							return
						}
						if !sameFront(got, instances[i].wantFront) {
							t.Errorf("goroutine %d inst %d: parallel front diverged", g, i)
							return
						}
						continue
					}
					if err := ps.SolveInto(&sol, instances[i].ev, popts); err != nil {
						t.Errorf("goroutine %d inst %d: %v", g, i, err)
						return
					}
					want := instances[i].want
					if sol.Feasible != want.Feasible || sol.Delay != want.Delay ||
						sol.TotalWidth != want.TotalWidth || sol.Stats != want.Stats {
						t.Errorf("goroutine %d inst %d: parallel solve diverged: got {%v %v %v %+v}, want {%v %v %v %+v}",
							g, i, sol.Feasible, sol.Delay, sol.TotalWidth, sol.Stats,
							want.Feasible, want.Delay, want.TotalWidth, want.Stats)
						return
					}
					if !slices.Equal(sol.Assignment.Positions, want.Assignment.Positions) ||
						!slices.Equal(sol.Assignment.Widths, want.Assignment.Widths) ||
						!slices.Equal(sol.Schemes, want.Schemes) {
						t.Errorf("goroutine %d inst %d: parallel assignment diverged", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if len(slots) != 0 {
		t.Fatalf("%d worker slots leaked", len(slots))
	}
}

// coupledPaperishLine is paperishLine with T180-like coupling densities
// on every segment.
func coupledPaperishLine(t *testing.T) *wire.Line {
	t.Helper()
	line, err := wire.New([]wire.Segment{
		{Length: 2.5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, CcFPerM: 1.6e-10, Layer: "metal4"},
		{Length: 3.0e-3, ROhmPerM: 6e4, CFPerM: 2.1e-10, CcFPerM: 1.4e-10, Layer: "metal5"},
		{Length: 2.5e-3, ROhmPerM: 8e4, CFPerM: 2.3e-10, CcFPerM: 1.6e-10, Layer: "metal4"},
	}, []wire.Zone{{Start: 3.4e-3, End: 5.0e-3}})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// sameFront reports whether two fronts agree bit for bit: every point's
// delay, width, cost, assignment and scheme vector.
func sameFront(a, b Front) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := &a[i], &b[i]
		if p.Delay != q.Delay || p.TotalWidth != q.TotalWidth || p.Cost != q.Cost ||
			!slices.Equal(p.Assignment.Positions, q.Assignment.Positions) ||
			!slices.Equal(p.Assignment.Widths, q.Assignment.Widths) ||
			!slices.Equal(p.Schemes, q.Schemes) {
			return false
		}
	}
	return true
}

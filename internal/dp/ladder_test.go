package dp

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

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

		// Front mode: the ladder must reproduce the exact front's point
		// values exactly.
		wf, _, wantErr := s.SolveFront(c.ev, c.opts)
		gf, _, gotErr := sl.SolveFront(c.ev, lopts)
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

// TestParallelPruneStress hammers the intra-net parallel prune from many
// concurrent solvers (run with -race in CI): every parallel schedule must
// reproduce the serial solve bit-exactly — assignments and work stats
// included — and the worker-budget hooks must never deadlock. The mix
// includes a laddered bounded solve, a laddered front solve and a coupled
// solve, whose wide repeater buckets exercise each reducer's own
// bucket-sort scratch.
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
		inst{ev: ev, opts: Options{Library: lib(t, 10, 10, 40), Pitch: 200 * units.Micron, Objective: MinPower, Target: 1.2 * tmin, Ladder: true}},
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

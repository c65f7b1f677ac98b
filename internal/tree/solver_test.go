package tree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
)

// diffTrees generates the randomized differential corpus: varied sink
// counts, edge lengths and RAT tightness, on the default node.
func diffTrees(t *testing.T, count int) []*Tree {
	t.Helper()
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	var out []*Tree
	for i := 0; i < count; i++ {
		c := cfg
		c.Sinks = 1 + rng.Intn(12)
		c.RAT = (0.3 + 1.4*rng.Float64()) * units.NanoSecond
		c.BufferEveryNode = i%2 == 0
		tr, err := Generate(rng, c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

func sameSolution(t *testing.T, name string, want, got Solution) {
	t.Helper()
	if want.Feasible != got.Feasible {
		t.Fatalf("%s: feasible %v vs %v", name, want.Feasible, got.Feasible)
	}
	if want.Slack != got.Slack {
		t.Errorf("%s: slack %g vs %g", name, want.Slack, got.Slack)
	}
	if want.TotalWidth != got.TotalWidth {
		t.Errorf("%s: total width %g vs %g", name, want.TotalWidth, got.TotalWidth)
	}
	if want.Stats != got.Stats {
		t.Errorf("%s: stats %+v vs %+v", name, want.Stats, got.Stats)
	}
	if len(want.Buffers) != len(got.Buffers) {
		t.Fatalf("%s: %d buffers vs %d", name, len(want.Buffers), len(got.Buffers))
	}
	for id, w := range want.Buffers {
		if got.Buffers[id] != w {
			t.Errorf("%s: buffer at node %d: width %g vs %g", name, id, w, got.Buffers[id])
		}
	}
}

// TestSolverMatchesReference pins the Solver bit-for-bit — placements,
// slack, width, feasibility and work stats — against the preserved
// pre-Solver implementation, across objectives and libraries.
func TestSolverMatchesReference(t *testing.T) {
	ts := tech.T180()
	libs := []struct {
		name   string
		widths []float64
	}{
		{"coarse", []float64{80, 160, 240, 320, 400}},
		{"fine", []float64{20, 40, 60, 80, 100, 150, 200, 300}},
	}
	s := NewSolver()
	for ti, tr := range diffTrees(t, 60) {
		for _, lb := range libs {
			for _, maxSlack := range []bool{false, true} {
				opts := Options{Library: lib(t, lb.widths...), Tech: ts, DriverWidth: 240, MaxSlack: maxSlack}
				want, errW := referenceInsert(tr, opts)
				got, errG := s.Insert(tr, opts)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("tree %d %s maxslack=%v: error mismatch: %v vs %v", ti, lb.name, maxSlack, errW, errG)
				}
				if errW != nil {
					continue
				}
				sameSolution(t, fmt.Sprintf("tree %d %s maxslack=%v", ti, lb.name, maxSlack), want, got)
			}
		}
	}
}

// TestSolverReuseDoesNotCorrupt solves many trees through one Solver and
// re-checks each against a fresh pooled solve: arena reuse must not leak
// state between instances, and returned Solutions must stay valid after
// later solves on the same Solver.
func TestSolverReuseDoesNotCorrupt(t *testing.T) {
	ts := tech.T180()
	opts := Options{Library: lib(t, 60, 120, 240, 360), Tech: ts, DriverWidth: 240}
	s := NewSolver()
	trees := diffTrees(t, 20)
	kept := make([]Solution, len(trees))
	for i, tr := range trees {
		sol, err := s.Insert(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = sol
	}
	for i, tr := range trees {
		fresh, err := NewSolver().Insert(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, fmt.Sprintf("tree %d after reuse", i), fresh, kept[i])
	}
}

// TestInsertIntoReusesBuffers checks the caller-owned-solution contract:
// the Buffers map is cleared and reused, not replaced, when present.
func TestInsertIntoReusesBuffers(t *testing.T) {
	ts := tech.T180()
	opts := Options{Library: lib(t, 100), Tech: ts, DriverWidth: 200}
	// Pick a RAT between the unbuffered and the buffered arrival so the
	// solve must place a buffer (the TestInsertBuffersWhenTight recipe).
	probe := chain(t, 1)
	slackNo, err := probe.Evaluate(nil, 200, ts.Rs, ts.Co, ts.Cp)
	if err != nil {
		t.Fatal(err)
	}
	slackBuf, err := probe.Evaluate(map[int]float64{1: 100}, 200, ts.Rs, ts.Co, ts.Cp)
	if err != nil {
		t.Fatal(err)
	}
	if !(slackBuf > slackNo) {
		t.Skip("buffering does not help this toy chain; adjust parameters")
	}
	tr := chain(t, 1-(slackNo+slackBuf)/2)
	s := NewSolver()
	var sol Solution
	if err := s.InsertInto(&sol, tr, opts); err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible || len(sol.Buffers) == 0 {
		t.Fatalf("expected a buffered feasible solution, got %+v", sol)
	}
	loose := chain(t, 1) // 1 s RAT: no buffers needed
	if err := s.InsertInto(&sol, loose, opts); err != nil {
		t.Fatal(err)
	}
	if len(sol.Buffers) != 0 {
		t.Errorf("loose tree should clear the reused map, got %v", sol.Buffers)
	}
}

// TestSolverSteadyStateAllocs bounds the steady-state allocation profile:
// after warmup, a solve allocates only the result map and its entries —
// the arenas, CSR, prune front and merge buffers are all reused.
func TestSolverSteadyStateAllocs(t *testing.T) {
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sinks = 8
	tr, err := Generate(rand.New(rand.NewSource(9)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Library: lib(t, 80, 160, 240, 320, 400), Tech: ts, DriverWidth: 240}
	s := NewSolver()
	var sol Solution
	for i := 0; i < 3; i++ { // warm the arenas
		if err := s.InsertInto(&sol, tr, opts); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.InsertInto(&sol, tr, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The reused Buffers map is cleared, not reallocated; nothing else
	// should allocate in steady state.
	if allocs > 0 {
		t.Errorf("steady-state solve allocates %.1f objects/run, want 0", allocs)
	}
}

// TestHybridWithMatchesHybrid pins InsertHybridWith (the engine's path,
// solver-threaded) against package InsertHybrid across random trees with
// a uniform deadline — the differential for the reusable solver path.
func TestHybridWithMatchesHybrid(t *testing.T) {
	ts := tech.T180()
	opts := Options{Tech: ts, DriverWidth: 240}
	s := NewSolver()
	for i, tr := range diffTrees(t, 12) {
		want, errW := InsertHybrid(tr, opts, HybridConfig{})
		got, errG := InsertHybridWith(s, tr, opts, HybridConfig{})
		if (errW == nil) != (errG == nil) {
			t.Fatalf("tree %d: error mismatch: %v vs %v", i, errW, errG)
		}
		if errW != nil {
			continue
		}
		if want.Picked != got.Picked {
			t.Errorf("tree %d: picked %q vs %q", i, want.Picked, got.Picked)
		}
		sameSolution(t, fmt.Sprintf("tree %d hybrid", i), want.Solution, got.Solution)
	}
}

// TestMinArrival checks the tree τmin analogue: it must be positive, no
// larger than any achievable arrival, and consistent with a max-slack
// solve at a uniform RAT.
func TestMinArrival(t *testing.T) {
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sinks = 6
	tr, err := Generate(rand.New(rand.NewSource(4)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Library: lib(t, 40, 80, 160, 240, 320, 400), Tech: ts, DriverWidth: 240}
	tmin, err := MinArrival(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(tmin > 0) {
		t.Fatalf("tmin = %g, want positive", tmin)
	}
	// A max-slack solve at uniform RAT r yields slack r - tmin.
	const r = 2e-9
	ms := opts
	ms.MaxSlack = true
	sol, err := Insert(tr.CloneWithRAT(r), ms)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((r-sol.Slack)-tmin) > 1e-18 {
		t.Errorf("uniform-RAT max-slack arrival %g inconsistent with tmin %g", r-sol.Slack, tmin)
	}
	// Solving at 1.3·tmin must be feasible; at 0.9·tmin infeasible.
	tight, err := Insert(tr.CloneWithRAT(1.3*tmin), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !tight.Feasible {
		t.Error("1.3·tmin should be feasible")
	}
	under, err := Insert(tr.CloneWithRAT(0.9*tmin), opts)
	if err != nil {
		t.Fatal(err)
	}
	if under.Feasible {
		t.Error("0.9·tmin should be infeasible")
	}
}

// TestCloneWithRAT checks deadlines are replaced on the clone only.
func TestCloneWithRAT(t *testing.T) {
	tr := chain(t, 1e-9)
	c := tr.CloneWithRAT(5e-9)
	if got := c.Sinks()[0].SinkRAT; got != 5e-9 {
		t.Errorf("clone sink RAT = %g, want 5e-9", got)
	}
	if got := tr.Sinks()[0].SinkRAT; got != 1e-9 {
		t.Errorf("original sink RAT mutated to %g", got)
	}
	if tr.HasDeadlines() != true {
		t.Error("chain with RAT should report deadlines")
	}
	tr.Sinks()[0].SinkRAT = 0
	if tr.HasDeadlines() {
		t.Error("zero-RAT sink should not report deadlines")
	}
}

// BenchmarkTreeSolver measures the steady-state tree DP on the default
// 8-sink instance — the tree analogue of dp's BenchmarkSolve, wired into
// the CI bench-compare job.
func BenchmarkTreeSolver(b *testing.B) {
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Sinks = 8
	tr, err := Generate(rand.New(rand.NewSource(2005)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	l, err := repeater.Range(10, 400, 10)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Library: l, Tech: ts, DriverWidth: 240}
	s := NewSolver()
	var sol Solution
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.InsertInto(&sol, tr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeHybrid measures the full tree pipeline through a reused
// Solver.
func BenchmarkTreeHybrid(b *testing.B) {
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Sinks = 8
	tr, err := Generate(rand.New(rand.NewSource(2005)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Tech: ts, DriverWidth: 240}
	s := NewSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InsertHybridWith(s, tr, opts, HybridConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// splitEdges returns a copy of t with every edge cut into k equal pieces
// joined at buffer sites, the way a router offers a site every few
// hundred microns.
func splitEdges(tb testing.TB, t *Tree, k int) *Tree {
	tb.Helper()
	c := t.Clone()
	nextID := 0
	for _, n := range c.nodes {
		nextID = max(nextID, n.ID+1)
	}
	for _, n := range c.nodes {
		for ci, child := range n.Children {
			r, cap := child.EdgeR/float64(k), child.EdgeC/float64(k)
			child.EdgeR, child.EdgeC = r, cap
			top := child
			for i := 1; i < k; i++ {
				top = &Node{ID: nextID, EdgeR: r, EdgeC: cap, Children: []*Node{top}, BufferSite: true}
				nextID++
			}
			n.Children[ci] = top
		}
	}
	out, err := New(c.Root)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// BenchmarkTreeSolver_BufferSites measures a tree DP dominated by buffer
// sites: the 16-sink tree with every edge cut into four site-joined
// pieces (about 120 sites), solved width-aware on the 40-width library
// 10–400.
func BenchmarkTreeSolver_BufferSites(b *testing.B) {
	ts := tech.T180()
	cfg, err := DefaultGenConfig(ts)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Sinks = 8
	tr, err := Generate(rand.New(rand.NewSource(2005)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr = splitEdges(b, tr, 3)
	l, err := repeater.Range(10, 400, 40)
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Library: l, Tech: ts, DriverWidth: 240}
	s := NewSolver()
	var sol Solution
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.InsertInto(&sol, tr, opts); err != nil {
			b.Fatal(err)
		}
	}
}

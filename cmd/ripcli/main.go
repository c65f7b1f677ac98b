// Command ripcli solves repeater insertion instances: one net from a JSON
// file (or generated), or — in batch mode — a JSONL stream of nets solved
// concurrently through the caching batch engine. Both two-pin lines and
// routing trees are supported; -tree switches to tree workloads.
//
// Usage:
//
//	ripcli -net nets.json -index 0 -target 1.3      # 1.3·τmin on net #0
//	ripcli -gen -seed 7 -target-ns 1.2              # random net, 1.2 ns
//	ripcli -net nets.json -mode dp -g 20            # baseline DP instead
//	ripcli -net nets.json -mode refine              # analytical phase only
//	ripcli -batch -net nets.jsonl -target 1.3       # JSONL in, JSONL out
//	gen-nets | ripcli -batch -target 1.3            # stream from stdin
//	ripcli -tree -net tree.json -target 1.3         # one routing tree
//	ripcli -tree -gen -seed 7 -target 1.3           # random routing tree
//	ripcli -tree -batch -net trees.jsonl -target 1.3 # tree JSONL stream
//	ripcli -net nets.json -front                    # full power–delay front
//	ripcli -net nets.json -targets-ns 0.8,1.0,1.5   # multi-budget sweep
//	ripcli -net nets.json -targets-ns 1.0 -aggressor worst -scheme staggered
//	                                                # crosstalk-aware, staggering allowed
//	netgen -bus -count 8 | ripcli -bus -target 1.3  # joint bus co-optimization
//	ripcli -bus -net bus.jsonl -target 1.3 -json    # one BusResponse per line
//
// Targets: -target is relative to the net's τmin (for trees, the minimum
// achievable worst-sink arrival); -target-ns is absolute nanoseconds.
// Exactly one must be given, except trees whose sinks all carry rat_ns
// deadlines, which may omit both.
//
// Front mode (-front) prints the net's entire power–delay Pareto front —
// the minimum total repeater width at every achievable delay — without
// requiring a target. Sweep mode (-targets-ns with a comma-separated
// list) answers every listed absolute budget from one solve of that
// front; both work for lines and, with -tree, routing trees.
//
// Crosstalk (-aggressor/-scheme, line nets only): -aggressor prices the
// node's coupling capacitance under a neighbor-switching assumption
// (worst, best or quiet; requires a node with a coupling model), and
// -scheme selects which per-interval countermeasures the solver may
// deploy: plain (none), staggered, shielded or auto (both). The flags
// apply to the engine-backed modes: -front, -targets-ns, and -batch,
// where they are the default for lines that carry neither "aggressor"
// nor "mf" (a line's own "scheme" still wins; an explicit "aggressor":
// "none" stays classic), exactly as ripd applies its default.
//
// Bus mode (-bus, line nets only) reads one api.BusRequest JSON object
// per line — a group of parallel tracks in physical adjacency order
// plus one budget; netgen -bus emits exactly this shape — and
// co-optimizes each group jointly: neighboring tracks coordinate
// staggering, shielding and repeater sizing so the group beats the
// independent worst-case solves each track would get alone. Text
// output summarizes each group's per-track schemes and savings; -json
// emits one api.BusResponse per line (the body POST /v1/bus returns).
// -bus-method forces the co-decision algorithm for groups that name
// none ("exact" or "iterate"; the default picks the exact joint chain
// DP for groups of at most 4 tracks and iterated best-response above).
//
// Batch mode reads one JSON object per line — either a bare net object
// (the same schema as the array elements of -net files; with -tree, the
// tree schema) or a wrapper {"net": {...}, "target_mult": 1.2} /
// {"tree": {...}, "target_ns": 0.9} overriding the command-line target
// for that net — and emits one JSON solution per line in input order.
// Wrapped lines may mix net kinds in one stream regardless of -tree,
// and may select a technology node per line with "tech": "90nm" (the
// -tech flag is the default for lines that name none; -tech-dir adds
// custom JSON nodes). Each output line reports the node it was solved
// under.
// Nets are never all held in memory, so chip-scale inputs stream through
// a bounded window. A net that fails (parse error, malformed crosstalk
// scenario, missing target, solver error, or a non-zero "eps": every
// answer is exact, so only "eps": 0 is accepted) gets an "error" field
// in its output line — naming the net when the line decoded — and the
// stream continues; the exit status is non-zero when any net failed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	rip "github.com/rip-eda/rip"
	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/report"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

func main() {
	var (
		netFile   = flag.String("net", "", "net JSON file (array of nets; JSONL in -batch mode; \"-\" or empty = stdin in -batch mode)")
		index     = flag.Int("index", 0, "net index within the file")
		gen       = flag.Bool("gen", false, "generate a random paper-style net instead of reading one")
		seed      = flag.Int64("seed", 1, "seed for -gen")
		techName  = flag.String("tech", "180nm", "technology node (built-in or loaded via -tech-dir); in -batch mode, the default for lines that name none")
		techDir   = flag.String("tech-dir", "", "directory of custom technology JSON files (registered under their name)")
		mode      = flag.String("mode", "rip", "solver: rip, dp or refine")
		g         = flag.Float64("g", 10, "baseline DP width granularity in u (mode=dp)")
		relT      = flag.Float64("target", 0, "timing target as a multiple of τmin")
		absT      = flag.Float64("target-ns", 0, "timing target in nanoseconds")
		targetsNS = flag.String("targets-ns", "", "comma-separated absolute targets in ns: answer every budget from one Pareto-front solve")
		frontOut  = flag.Bool("front", false, "print the net's full power–delay Pareto front instead of solving one budget")
		metrics   = flag.Bool("metrics", false, "also report the two-moment (D2M) delay of the solution")
		jsonOut   = flag.Bool("json", false, "emit the solution as JSON instead of text")
		fullRep   = flag.Bool("report", false, "print the full engineering report (stages, metrics, sketch)")
		batch     = flag.Bool("batch", false, "JSONL batch mode: stream nets in, one solution per line out")
		busMode   = flag.Bool("bus", false, "bus mode: JSONL api.BusRequest track groups in (netgen -bus output), joint co-optimization per group out")
		busMethod = flag.String("bus-method", "", "with -bus: force the co-decision algorithm for groups that name none: exact or iterate (empty = auto)")
		treeMode  = flag.Bool("tree", false, "tree mode: solve routing trees (with -batch, bare JSONL lines parse as trees; alone, -net is one tree JSON object)")
		workers   = flag.Int("workers", 0, "batch parallelism (0 = all cores)")
		cacheSize = flag.Int("cache", 0, "batch solution-cache capacity (0 = default 4096, negative = disabled)")
	)
	scenarioFlags := api.ScenarioFlags(flag.CommandLine)
	flag.Parse()

	reg := rip.BuiltinTechRegistry()
	if *techDir != "" {
		if _, err := reg.LoadDir(*techDir); err != nil {
			fatal(err)
		}
	}
	tech, _, err := reg.Get(*techName)
	if err != nil {
		fatal(err)
	}
	scenario, err := scenarioFlags()
	if err != nil {
		fatal(err)
	}
	coupled := scenario != rip.Scenario{}
	if *busMode {
		switch {
		case *treeMode:
			fatal(fmt.Errorf("-bus co-optimizes parallel line nets; it cannot combine with -tree"))
		case *batch || *frontOut || *targetsNS != "":
			fatal(fmt.Errorf("-bus is its own streaming mode; it cannot combine with -batch, -front or -targets-ns"))
		case *gen:
			fatal(fmt.Errorf("-bus reads generated groups from netgen -bus; -gen is not supported"))
		case coupled:
			fatal(fmt.Errorf("-aggressor/-scheme do not apply to -bus: the co-optimizer decides each track's scheme"))
		}
		if err := runBus(reg, *techName, *netFile, *relT, *absT, *busMethod, *workers, *cacheSize, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if coupled {
		switch {
		case *treeMode && !*batch:
			fatal(fmt.Errorf("-aggressor is only supported for line nets"))
		case !*batch && !*frontOut && *targetsNS == "":
			fatal(fmt.Errorf("-aggressor applies to the engine-backed modes: -batch, -front or -targets-ns"))
		}
	}
	if *frontOut || *targetsNS != "" {
		if *batch {
			fatal(fmt.Errorf("-front and -targets-ns are single-net modes; batch lines carry a per-line targets_ns list instead"))
		}
		if err := runFrontSweep(tech, *netFile, *index, *gen, *seed, *treeMode, *frontOut, *targetsNS, scenario, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *batch {
		bare := api.KindLine
		if *treeMode {
			bare = api.KindTree
		}
		if err := runBatch(reg, *techName, *netFile, *relT, *absT, scenario, *workers, *cacheSize, bare); err != nil {
			fatal(err)
		}
		return
	}
	if *treeMode {
		if err := runTree(tech, *netFile, *gen, *seed, *relT, *absT, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	net, err := loadNet(*netFile, *index, *gen, *seed, tech)
	if err != nil {
		fatal(err)
	}

	tmin, err := rip.MinimumDelay(net, tech)
	if err != nil {
		fatal(err)
	}
	var target float64
	switch {
	case *relT > 0 && *absT > 0:
		fatal(fmt.Errorf("give either -target or -target-ns, not both"))
	case *relT > 0:
		target = *relT * tmin
	case *absT > 0:
		target = *absT * units.NanoSecond
	default:
		fatal(fmt.Errorf("a timing target is required: -target (×τmin) or -target-ns"))
	}

	fmt.Printf("net %s: %d segments, length %s, %d zones, τmin %s, target %s\n",
		net.Name, net.Line.NumSegments(), units.Meters(net.Line.Length()),
		len(net.Line.Zones()), units.Seconds(tmin), units.Seconds(target))

	switch *mode {
	case "rip":
		res, err := rip.Insert(net, tech, target, rip.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(net, res.Solution, target)
			return
		}
		if *fullRep {
			err := report.Write(os.Stdout, net, tech, res, target,
				report.Options{Stages: true, Metrics: true, Sketch: true})
			if err != nil {
				fatal(err)
			}
			return
		}
		printSolution(net, tech, res.Solution, target)
		rep := res.Report
		fmt.Printf("phases: coarse %v (w=%.1f) | refine %v (w=%.1f, %d moves) | final %v | picked %s\n",
			rep.CoarseTime.Round(1000), rep.CoarseDP.TotalWidth,
			rep.RefineTime.Round(1000), rep.Refined.TotalWidth, rep.Refined.Moves,
			rep.FinalTime.Round(1000), rep.Picked)
		if *metrics && res.Solution.Feasible {
			printMetrics(net, tech, res.Solution.Assignment)
		}
	case "dp":
		lib, err := rip.UniformLibrary(10, *g, 10)
		if err != nil {
			fatal(err)
		}
		sol, err := rip.SolveDP(net, tech, lib, 200*units.Micron, target)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(net, sol, target)
			return
		}
		printSolution(net, tech, sol, target)
		if *metrics && sol.Feasible {
			printMetrics(net, tech, sol.Assignment)
		}
	case "refine":
		// Seed the analytical phase from uniform legal positions.
		res, err := rip.Insert(net, tech, target, rip.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		r := res.Report.Refined
		fmt.Printf("refine: %d repeaters, continuous total width %.2fu, λ=%.3g, delay %s, %d iterations\n",
			r.Assignment.N(), r.TotalWidth, r.Lambda, units.Seconds(r.Delay), r.Iterations)
		for i := range r.Assignment.Positions {
			fmt.Printf("  repeater %d: x=%s w=%.2fu\n", i+1,
				units.Meters(r.Assignment.Positions[i]), r.Assignment.Widths[i])
		}
	default:
		fatal(fmt.Errorf("unknown mode %q (want rip, dp or refine)", *mode))
	}
}

func loadNet(path string, index int, gen bool, seed int64, tech *rip.Technology) (*rip.Net, error) {
	if gen {
		rng := rand.New(rand.NewSource(seed))
		return rip.GenerateNet(tech, rng, fmt.Sprintf("gen-%d", seed))
	}
	if path == "" {
		return nil, fmt.Errorf("either -net FILE or -gen is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	nets, err := wire.ReadNets(f)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= len(nets) {
		return nil, fmt.Errorf("index %d out of range: file has %d nets", index, len(nets))
	}
	return nets[index], nil
}

// runTree solves one routing tree: a tree JSON file (internal/tree's Net
// schema) or a generated instance, at a uniform deadline or against the
// tree's embedded per-sink RATs.
func runTree(tech *rip.Technology, path string, gen bool, seed int64, relT, absT float64, jsonOut bool) error {
	tn, err := loadTreeNet(path, gen, seed, tech)
	if err != nil {
		return err
	}
	if relT > 0 && absT > 0 {
		return fmt.Errorf("give either -target or -target-ns, not both")
	}
	var target, tmin float64
	switch {
	case relT > 0:
		// τmin (a full max-slack DP) is only computed when the target is
		// relative to it.
		var err error
		tmin, err = rip.TreeMinimumDelay(tn, tech)
		if err != nil {
			return err
		}
		target = relT * tmin
	case absT > 0:
		target = absT * units.NanoSecond
	case !tn.HasDeadlines():
		return fmt.Errorf("a timing target is required: -target (×τmin) or -target-ns, or rat_ns on every sink")
	}
	fmt.Printf("tree %s: %d nodes, %d sinks, %d buffer sites",
		tn.Name, tn.Tree.NumNodes(), len(tn.Tree.Sinks()), len(tn.Tree.BufferSites()))
	if tmin > 0 {
		fmt.Printf(", τmin %s", units.Seconds(tmin))
	}
	fmt.Println()
	res, err := rip.InsertTreeNet(tn, tech, target)
	if err != nil {
		return err
	}
	sol := res.Solution
	if jsonOut {
		line := api.FromResult(rip.BatchResult{TreeNet: tn, Target: target, TMin: tmin, TreeRes: res})
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(line)
	}
	if !sol.Feasible {
		fmt.Println("INFEASIBLE: no buffer placement meets every sink deadline in the searched space")
		return nil
	}
	if target > 0 {
		fmt.Printf("solution: %d buffers, total width %.1fu, worst arrival %s (target %s) — picked %s\n",
			len(sol.Buffers), sol.TotalWidth, units.Seconds(target-sol.Slack), units.Seconds(target), res.Picked)
	} else {
		fmt.Printf("solution: %d buffers, total width %.1fu, worst slack %s — picked %s\n",
			len(sol.Buffers), sol.TotalWidth, units.Seconds(sol.Slack), res.Picked)
	}
	ids := make([]int, 0, len(sol.Buffers))
	for id := range sol.Buffers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  buffer at node %d: width %.0fu\n", id, sol.Buffers[id])
	}
	return nil
}

// runFrontSweep serves the two front-native single-net modes: -front
// prints the whole power–delay Pareto front, -targets-ns answers a list
// of absolute budgets from one solve of that front. Both go through the
// batch engine so the output is exactly what cached multi-budget batches
// and ripd's /v1/front serve.
func runFrontSweep(tech *rip.Technology, path string, index int, gen bool, seed int64, treeMode, front bool, targetsNS string, scenario rip.Scenario, jsonOut bool) error {
	eng, err := rip.NewEngine(tech, rip.EngineOptions{})
	if err != nil {
		return err
	}
	var j rip.BatchJob
	if treeMode {
		tn, err := loadTreeNet(path, gen, seed, tech)
		if err != nil {
			return err
		}
		j.TreeNet = tn
	} else {
		n, err := loadNet(path, index, gen, seed, tech)
		if err != nil {
			return err
		}
		j.Net = n
		j.Scenario = scenario
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if front {
		fr := eng.Front(j)
		if fr.Err != nil {
			return fr.Err
		}
		if jsonOut {
			return enc.Encode(api.FromFrontResult(fr))
		}
		fmt.Printf("front %s (%s): %d points", frontName(j), fr.Tech, len(fr.Points))
		if fr.TMin > 0 {
			fmt.Printf(", τmin %s", units.Seconds(fr.TMin))
		}
		fmt.Println()
		for _, p := range fr.Points {
			if p.Delay != 0 {
				fmt.Printf("  delay %s  width %8.1fu  repeaters %d\n",
					units.Seconds(p.Delay), p.TotalWidth, p.Repeaters)
			} else {
				fmt.Printf("  slack %s  width %8.1fu  repeaters %d\n",
					units.Seconds(p.Slack), p.TotalWidth, p.Repeaters)
			}
		}
		return nil
	}
	budgets, err := parseTargetsNS(targetsNS)
	if err != nil {
		return err
	}
	j.Budgets = budgets
	res := eng.Run([]rip.BatchJob{j})[0]
	if res.Err != nil {
		return res.Err
	}
	line := api.FromResult(res)
	if jsonOut {
		return enc.Encode(line)
	}
	fmt.Printf("sweep %s (%s): %d budgets answered from one front solve\n",
		frontName(j), line.Tech, len(line.Sweep))
	for _, p := range line.Sweep {
		if !p.Feasible {
			fmt.Printf("  target %g ns: INFEASIBLE\n", p.TargetNS)
			continue
		}
		n := len(p.WidthsU) + len(p.Buffers)
		fmt.Printf("  target %g ns: delay %.4g ns, width %.1fu, %d repeaters\n",
			p.TargetNS, p.DelayNS, p.TotalWidthU, n)
	}
	return nil
}

func frontName(j rip.BatchJob) string {
	if j.TreeNet != nil {
		return j.TreeNet.Name
	}
	return j.Net.Name
}

// parseTargetsNS parses the -targets-ns list: comma-separated positive
// nanosecond budgets, returned in seconds for engine.Job.Budgets.
func parseTargetsNS(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("-targets-ns entry %q: %v", tok, err)
		}
		if !(v > 0) {
			return nil, fmt.Errorf("-targets-ns entry %g is not a positive time", v)
		}
		out = append(out, v*units.NanoSecond)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-targets-ns needs at least one positive value, e.g. -targets-ns 0.8,1.0,1.5")
	}
	return out, nil
}

func loadTreeNet(path string, gen bool, seed int64, tech *rip.Technology) (*rip.TreeNet, error) {
	if gen {
		rng := rand.New(rand.NewSource(seed))
		return rip.GenerateTreeNet(tech, rng, fmt.Sprintf("gentree-%d", seed))
	}
	if path == "" {
		return nil, fmt.Errorf("either -net FILE or -gen is required")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tn rip.TreeNet
	if err := json.Unmarshal(raw, &tn); err != nil {
		return nil, err
	}
	return &tn, nil
}

func printSolution(net *rip.Net, tech *rip.Technology, sol rip.Solution, target float64) {
	if !sol.Feasible {
		fmt.Println("INFEASIBLE: no repeater assignment meets the target in the searched space")
		return
	}
	pm, err := rip.NewPowerModel(tech)
	if err != nil {
		fatal(err)
	}
	rep := pm.Report(sol.TotalWidth, net.Line.TotalC())
	fmt.Printf("solution: %d repeaters, total width %.1fu, delay %s (target %s)\n",
		sol.Assignment.N(), sol.TotalWidth, units.Seconds(sol.Delay), units.Seconds(target))
	fmt.Printf("power: repeaters %s + wire %s = %s\n",
		units.Watts(rep.RepeaterW), units.Watts(rep.WireW), units.Watts(rep.TotalW()))
	for i := range sol.Assignment.Positions {
		fmt.Printf("  repeater %d: x=%s w=%.0fu\n", i+1,
			units.Meters(sol.Assignment.Positions[i]), sol.Assignment.Widths[i])
	}
}

// printMetrics reports the solution's delay under both metrics: Elmore
// (what the optimizer guarantees) and the tighter two-moment D2M estimate.
func printMetrics(net *rip.Net, tech *rip.Technology, a rip.Assignment) {
	m, err := rip.EvaluateMetrics(net, tech, a)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("metrics: Elmore %s, D2M %s (ratio %.3f) — Elmore is the conservative bound\n",
		units.Seconds(m.Elmore), units.Seconds(m.D2M), m.Ratio())
}

// solutionJSON is ripcli's machine-readable output (µm / ns conventions).
type solutionJSON struct {
	Net         string    `json:"net"`
	Feasible    bool      `json:"feasible"`
	TargetNS    float64   `json:"target_ns"`
	DelayNS     float64   `json:"delay_ns"`
	TotalWidthU float64   `json:"total_width_u"`
	PositionsUM []float64 `json:"positions_um"`
	WidthsU     []float64 `json:"widths_u"`
}

func emitJSON(net *rip.Net, sol rip.Solution, target float64) {
	out := solutionJSON{
		Net:         net.Name,
		Feasible:    sol.Feasible,
		TargetNS:    target / units.NanoSecond,
		DelayNS:     sol.Delay / units.NanoSecond,
		TotalWidthU: sol.TotalWidth,
	}
	for _, x := range sol.Assignment.Positions {
		out.PositionsUM = append(out.PositionsUM, units.ToMicrons(x))
	}
	out.WidthsU = append(out.WidthsU, sol.Assignment.Widths...)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

// runBatch streams JSONL nets through the multi-technology batch
// engine: read, route each line to its node (a per-line "tech" field;
// defaultTech for lines that name none), solve concurrently, emit one
// solution line per net in input order. The line format is
// internal/api's Request/Response — the same wire format cmd/ripd
// serves, so batch files replay against the HTTP service as-is,
// mixed-node corpora included.
func runBatch(reg *rip.TechRegistry, defaultTech, path string, relT, absT float64, scenario rip.Scenario, workers, cacheSize int, bare api.Kind) error {
	in := os.Stdin
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	opts := rip.EngineOptions{Workers: workers}
	if cacheSize < 0 {
		opts.Cache.Disabled = true
	} else {
		opts.Cache.Capacity = cacheSize
	}
	eng, err := rip.NewMultiEngine(reg, defaultTech, opts)
	if err != nil {
		return err
	}

	jobs := make(chan rip.BatchJob)
	results := eng.RunStream(jobs)
	// parseErrs maps job index → parse failure, so a malformed line is
	// reported with its position and cause instead of a generic engine
	// error. Guarded: the feeder goroutine writes while the result loop
	// reads.
	var mu sync.Mutex
	parseErrs := make(map[int]api.Response)
	var readErr error
	go func() {
		defer close(jobs)
		readErr = feedBatch(in, relT, absT, scenario, bare, jobs, func(idx int, fail api.Response) {
			mu.Lock()
			parseErrs[idx] = fail
			mu.Unlock()
		})
	}()

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	start := time.Now()
	n, failed, infeasible := 0, 0, 0
	for r := range results {
		line := api.FromResult(r)
		mu.Lock()
		if fail, ok := parseErrs[r.Index]; ok {
			// A refused line carries only its failure — no default-node
			// tech attribution (same rule as ripd's /v1/batch).
			line = fail
		}
		mu.Unlock()
		switch {
		case line.Err != nil:
			failed++
		case !line.Feasible:
			infeasible++
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
		n++
	}
	if readErr != nil {
		return readErr
	}
	elapsed := time.Since(start)
	st := eng.CacheStats()
	rate := float64(n) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr,
		"ripcli: %d nets in %s (%.0f nets/s) — %d infeasible, %d failed; cache: %d hits, %d misses, %d rejected, %d entries\n",
		n, elapsed.Round(time.Millisecond), rate, infeasible, failed,
		st.Hits, st.Misses, st.Rejected, st.Entries)
	// Failed nets are isolated (every result line was emitted), but a
	// scripted pipeline must still see the run as unsuccessful.
	if failed > 0 {
		return fmt.Errorf("%d of %d nets failed (see \"error\" fields in the output)", failed, n)
	}
	return nil
}

// feedBatch parses JSONL lines into jobs via the shared api.FeedJSONL
// loop (the same machinery ripd's /v1/batch uses). A line that fails to
// parse is reported via noteErr and emitted as a nil-net job, so the
// failure surfaces in the output stream at the right position instead
// of killing the run.
func feedBatch(in io.Reader, relT, absT float64, scenario rip.Scenario, bare api.Kind, jobs chan<- rip.BatchJob, noteErr func(int, api.Response)) error {
	if relT > 0 && absT > 0 {
		return fmt.Errorf("give either -target or -target-ns, not both")
	}
	opts := api.FeedOptions{
		DefaultMult:     relT,
		DefaultNS:       absT,
		DefaultScenario: scenario,
		Bare:            bare,
		// An explicit -target/-target-ns means what it means in single
		// mode: it overrides embedded tree deadlines too. Per-line
		// wrapper budgets still win.
		ForceDefault: relT > 0 || absT > 0,
	}
	_, err := api.FeedJSONL(context.Background(), in, opts, jobs, noteErr)
	return err
}

// runBus streams JSONL bus groups — api.BusRequest lines, the shape
// netgen -bus emits — through the multi-technology engine's joint
// co-optimizer: one group per line in, a per-group text summary (or,
// with -json, one api.BusResponse per line — the same body POST
// /v1/bus returns) out. Groups solve sequentially; each group's member
// solves fan out across the engine's worker pool, and repeated track
// shapes warm the shared solution cache across groups.
func runBus(reg *rip.TechRegistry, defaultTech, path string, relT, absT float64, method string, workers, cacheSize int, jsonOut bool) error {
	switch method {
	case "", "exact", "iterate":
	default:
		return fmt.Errorf(`-bus-method %q is not "exact", "iterate" or ""`, method)
	}
	if relT > 0 && absT > 0 {
		return fmt.Errorf("give either -target or -target-ns, not both")
	}
	in := io.Reader(os.Stdin)
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	opts := rip.EngineOptions{Workers: workers}
	if cacheSize < 0 {
		opts.Cache.Disabled = true
	} else {
		opts.Cache.Capacity = cacheSize
	}
	eng, err := rip.NewMultiEngine(reg, defaultTech, opts)
	if err != nil {
		return err
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)
	dec := json.NewDecoder(bufio.NewReader(in))
	start := time.Now()
	n, failed := 0, 0
	var areaSaved, powerSaved float64
	for {
		var req api.BusRequest
		if err := dec.Decode(&req); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("bus group %d: %v (bus input is JSONL — one api.BusRequest per line, the shape netgen -bus emits)", n+1, err)
		}
		n++
		if req.Method == "" {
			req.Method = method
		}
		req.ApplyDefault(relT, absT)
		var resp api.BusResponse
		if err := req.Validate(); err != nil {
			resp = api.CodedBusErrorResponse(api.ErrorCode(err), req.Tech, err.Error())
		} else {
			resp = api.FromBusResult(eng.SolveBus(context.Background(), req.Job()))
		}
		if resp.Err != nil {
			failed++
		}
		areaSaved += resp.GroupAreaSaved
		powerSaved += resp.GroupPowerSaved
		if jsonOut {
			if err := enc.Encode(resp); err != nil {
				return err
			}
			continue
		}
		printBusGroup(out, n, resp)
	}
	if err := out.Flush(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	st := eng.CacheStats()
	fmt.Fprintf(os.Stderr,
		"ripcli: %d bus groups in %s — %d failed; coordination saved %.1fu area, %.2f µW; cache: %d hits, %d misses, %d entries\n",
		n, elapsed.Round(time.Millisecond), failed, areaSaved, powerSaved,
		st.Hits, st.Misses, st.Entries)
	if failed > 0 {
		return fmt.Errorf("%d of %d bus groups failed (see the error envelopes in the output)", failed, n)
	}
	return nil
}

// printBusGroup renders one group's co-decision as text: the group
// objective against the independent worst-case baseline, then each
// track's scheme, effective Miller factor and answer.
func printBusGroup(w io.Writer, idx int, resp api.BusResponse) {
	if resp.Err != nil {
		fmt.Fprintf(w, "group %d: ERROR %s: %s\n", idx, resp.Err.Code, resp.Err.Message)
		return
	}
	name := ""
	if len(resp.Tracks) > 0 {
		name = strings.TrimSuffix(resp.Tracks[0].Net, ".t0")
	}
	fmt.Fprintf(w, "group %d %s (%s, %d tracks, %s): width %.1fu vs %.1fu independent — saved %.1fu area, %.2f µW\n",
		idx, name, resp.Tech, len(resp.Tracks), resp.Method,
		resp.GroupWidthU, resp.GroupBaselineWidthU, resp.GroupAreaSaved, resp.GroupPowerSaved)
	for _, t := range resp.Tracks {
		if !t.Feasible {
			fmt.Fprintf(w, "  %-14s %-9s mf %.2f  INFEASIBLE\n", t.Net, t.Scheme, t.MF)
			continue
		}
		fmt.Fprintf(w, "  %-14s %-9s mf %.2f  width %8.1fu  delay %.4g ns\n",
			t.Net, t.Scheme, t.MF, t.WidthU, t.DelayNS)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ripcli:", err)
	os.Exit(1)
}

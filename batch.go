package rip

import (
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/engine"
)

// Batch-optimization types re-exported from the concurrent engine layer.
type (
	// Engine is a concurrent batch optimizer with a sharded LRU solution
	// cache. It is safe for concurrent use; one Engine may serve many
	// goroutines and overlapping batches, all sharing one cache.
	Engine = engine.Engine
	// BatchJob is one net — two-pin Net or TreeNet, exactly one — plus
	// its timing budget: relative TargetMult or absolute Target seconds
	// (exactly one positive), or neither for a TreeNet whose sinks all
	// carry embedded deadlines.
	BatchJob = engine.Job
	// BatchResult is one net's outcome; Err is per-net, so one bad net
	// never aborts a batch.
	BatchResult = engine.Result
	// EngineOptions configures worker count, pipeline config and cache.
	EngineOptions = engine.Options
	// CacheOptions configures the engine's solution cache: capacity,
	// sharding and signature quantization.
	CacheOptions = engine.CacheOptions
	// CacheStats snapshots cache effectiveness counters.
	CacheStats = engine.CacheStats
	// BudgetAnswer is one entry of a multi-budget sweep: the budget in
	// seconds plus the line (Res) or tree (TreeRes) answer at that budget,
	// all served from the one cached Pareto front.
	BudgetAnswer = engine.BudgetAnswer
	// FrontResult is a net's full power–delay Pareto front as returned by
	// Engine.Front: the cheapest assignment at every achievable delay,
	// computed once per net shape and cached.
	FrontResult = engine.FrontResult
	// FrontPoint is one point of a Pareto front: a delay (or, for
	// embedded-deadline trees, a worst slack) and the minimum total
	// repeater width that achieves it.
	FrontPoint = engine.FrontPoint
	// FrontStats snapshots the engine's front counters: fronts computed,
	// points retained and budget answers served by lookup.
	FrontStats = engine.FrontStats
	// BusJob is one joint bus-optimization request: a group of parallel
	// tracks in adjacency order plus one budget, solved with
	// Engine.SolveBus / MultiEngine.SolveBus.
	BusJob = engine.BusJob
	// BusResult is one bus job's outcome: the co-decided per-track
	// schemes and the group's savings against independent worst-case
	// solves.
	BusResult = engine.BusResult
	// BusTrack is one track's share of a BusResult.
	BusTrack = engine.BusTrack
	// BusStats snapshots the engine's bus co-optimization counters.
	BusStats = engine.BusStats
	// Scenario is the crosstalk scenario a line BatchJob is solved under
	// (BatchJob.Scenario). The zero value is the classic uncoupled model;
	// ParseScenario builds the others.
	Scenario = delay.Scenario
)

// ParseScenario builds a crosstalk scenario from the tokens ripd's
// "aggressor", "scheme" and "mf" request fields take.
func ParseScenario(aggressor, scheme string, mf *float64) (Scenario, error) {
	return delay.ParseScenario(aggressor, scheme, mf)
}

// NewEngine builds a batch optimizer for the technology node. The zero
// EngineOptions means GOMAXPROCS workers, the paper's §6 pipeline
// configuration and a 4096-entry cache.
//
// Ownership rule: whoever calls NewEngine owns the engine and decides
// its lifetime; everything else borrows it. The engine's value grows
// with its lifetime — its solution cache only pays off across calls —
// so long-lived processes should create exactly one Engine per
// technology node and thread it through every consumer, the way
// cmd/ripd hands one engine to internal/server and internal/flow
// accepts one via Plan.Engine. An Engine has no Close: it holds no
// resources beyond memory and is reclaimed by the garbage collector.
func NewEngine(t *Technology, opts EngineOptions) (*Engine, error) {
	return engine.New(t, opts)
}

// OptimizeBatch optimizes every net at target targetMult·τmin
// concurrently and returns per-net results in input order.
//
// It is the one-call convenience form: it builds a throwaway Engine
// whose solution cache is discarded when the call returns, so repeated
// calls re-solve nets an owned engine would have served from cache.
// Anything that outlives one batch — a service, a flow driver, a loop
// over designs — should construct an Engine once with NewEngine and use
// Engine.Run / Engine.RunStream / Engine.SolveContext instead (see the
// ownership rule on NewEngine).
func OptimizeBatch(nets []*Net, t *Technology, targetMult float64, opts EngineOptions) ([]BatchResult, error) {
	eng, err := engine.New(t, opts)
	if err != nil {
		return nil, err
	}
	jobs := make([]BatchJob, len(nets))
	for i, n := range nets {
		jobs[i] = BatchJob{Net: n, TargetMult: targetMult}
	}
	return eng.Run(jobs), nil
}

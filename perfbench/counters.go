package main

import "github.com/rip-eda/rip/internal/engine"

// counters are the engine layers' public Stats(), summed over every
// node's engine.
type counters struct {
	cache engine.CacheStats
	dp    engine.DPStats
	tree  engine.TreeDPStats
	front engine.FrontStats
	bus   engine.BusStats
	cpl   engine.CouplingStats
}

func readCounters(m *engine.Multi) counters {
	var c counters
	for _, name := range m.Names() {
		e, _ := m.Engine(name)
		c = c.add(counters{
			cache: e.CacheStats(), dp: e.DPStats(), tree: e.TreeDPStats(),
			front: e.FrontStats(), bus: e.BusStats(), cpl: e.CouplingStats(),
		})
	}
	return c
}

// add sums two counter sets; high-water marks take the larger value.
func (a counters) add(b counters) counters {
	return counters{
		cache: engine.CacheStats{
			Hits: a.cache.Hits + b.cache.Hits, Misses: a.cache.Misses + b.cache.Misses,
			Rejected: a.cache.Rejected + b.cache.Rejected, Evictions: a.cache.Evictions + b.cache.Evictions,
			Entries: a.cache.Entries + b.cache.Entries,
		},
		dp: engine.DPStats{
			Solves: a.dp.Solves + b.dp.Solves, Generated: a.dp.Generated + b.dp.Generated,
			Kept: a.dp.Kept + b.dp.Kept, MaxPerLevel: max(a.dp.MaxPerLevel, b.dp.MaxPerLevel),
			BudgetAborts: a.dp.BudgetAborts + b.dp.BudgetAborts,
		},
		tree: engine.TreeDPStats{
			Solves: a.tree.Solves + b.tree.Solves, Generated: a.tree.Generated + b.tree.Generated,
			Kept: a.tree.Kept + b.tree.Kept, MaxPerNode: max(a.tree.MaxPerNode, b.tree.MaxPerNode),
		},
		front: engine.FrontStats{
			Solves: a.front.Solves + b.front.Solves, Points: a.front.Points + b.front.Points,
			MaxPoints: max(a.front.MaxPoints, b.front.MaxPoints), Lookups: a.front.Lookups + b.front.Lookups,
		},
		bus: engine.BusStats{
			Jobs: a.bus.Jobs + b.bus.Jobs, Tracks: a.bus.Tracks + b.bus.Tracks,
			Exact: a.bus.Exact + b.bus.Exact, Iterated: a.bus.Iterated + b.bus.Iterated,
			Sweeps: a.bus.Sweeps + b.bus.Sweeps,
		},
		cpl: engine.CouplingStats{
			Jobs: a.cpl.Jobs + b.cpl.Jobs, Solves: a.cpl.Solves + b.cpl.Solves,
			StaggeredAnswers: a.cpl.StaggeredAnswers + b.cpl.StaggeredAnswers,
			ShieldedAnswers:  a.cpl.ShieldedAnswers + b.cpl.ShieldedAnswers,
		},
	}
}

// sub is the change from b to a. High-water marks and the entry count
// keep a's (the later) value.
func (a counters) sub(b counters) counters {
	d := a
	d.cache.Hits -= b.cache.Hits
	d.cache.Misses -= b.cache.Misses
	d.cache.Rejected -= b.cache.Rejected
	d.cache.Evictions -= b.cache.Evictions
	d.dp.Solves -= b.dp.Solves
	d.dp.Generated -= b.dp.Generated
	d.dp.Kept -= b.dp.Kept
	d.dp.BudgetAborts -= b.dp.BudgetAborts
	d.tree.Solves -= b.tree.Solves
	d.tree.Generated -= b.tree.Generated
	d.tree.Kept -= b.tree.Kept
	d.front.Solves -= b.front.Solves
	d.front.Points -= b.front.Points
	d.front.Lookups -= b.front.Lookups
	d.bus.Jobs -= b.bus.Jobs
	d.bus.Tracks -= b.bus.Tracks
	d.bus.Exact -= b.bus.Exact
	d.bus.Iterated -= b.bus.Iterated
	d.bus.Sweeps -= b.bus.Sweeps
	d.cpl.Jobs -= b.cpl.Jobs
	d.cpl.Solves -= b.cpl.Solves
	d.cpl.StaggeredAnswers -= b.cpl.StaggeredAnswers
	d.cpl.ShieldedAnswers -= b.cpl.ShieldedAnswers
	return d
}

package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/snapshot"
	"github.com/rip-eda/rip/internal/tech"
)

// Latency limits behind slo_share: a request (a whole design for the
// flow workloads) that fails or takes longer misses.
var sloMS = map[string]float64{
	"flow-cold":   10000,
	"flow-eco":    1000,
	"whatif-open": sloWhatifMS,
	"xtalk-bus":   1000,
}

// heapOps is how many leading ops of the workload the server has served
// when heap_live_mb is measured, for the closed-loop workloads whose
// cache grows with every op: measured at the end of the run, the heap
// would grow with the program's speed. The others end with a footprint
// that does not depend on it: flow-cold's last design on its own server,
// whatif-open's fixed schedule.
var heapOps = map[string]int{
	"flow-eco":  16,   // ECO batches
	"xtalk-bus": 1040, // 40 blocks
}

// goldenOps is how many leading ops of a run the golden digest covers:
// few enough that even a traced half-length run always completes them.
var goldenOps = map[string]int{
	"flow-cold":   1,
	"flow-eco":    1,
	"whatif-open": 100,
	"xtalk-bus":   12,
}

// bench is one invocation: a workload, its seed and its prepared inputs.
type bench struct {
	name    string
	seed    int64
	workers int
	ids     int // shape id counter shared by every generator
	chk     *checker

	// Restore workloads: the design the snapshot holds and its file.
	base     *design
	snapPath string
}

// pass is one measured run of the workload's traffic against a server.
type pass struct {
	ops      []*op
	replies  []reply
	times    []timing
	wall     time.Duration
	cpu      time.Duration // process CPU time over an open-loop run
	cnt      counters
	infl     int64
	alloc    uint64 // bytes allocated during the pass
	gcs      uint32
	inst     *instance // the serving instance, still running
	coldKeys int       // distinct shapes answered cold
	misses   int       // answers served cold
}

func (p *pass) add(o *op, r reply, t timing) {
	p.ops = append(p.ops, o)
	p.replies = append(p.replies, r)
	p.times = append(p.times, t)
}

// restores reports whether the workload serves from a snapshot.
func (b *bench) restores() bool { return b.name == "flow-eco" || b.name == "whatif-open" }

// prepare builds the design and snapshot of the restore workloads, once
// per invocation and outside all timing, with the code under test: the
// design is solved cold on a Multi and its cache saved.
func (b *bench) prepare(dir string) error {
	if !b.restores() {
		return nil
	}
	b.base = newGen(b.seed, &b.ids).design(ecoDesign, "base")
	m, err := engine.NewMulti(tech.DefaultRegistry(), defaultTech, engine.Options{Workers: b.workers})
	if err != nil {
		return err
	}
	var jobs []engine.Job
	for _, sh := range b.base.shapes {
		l := &lineReq{sh: sh, name: "prep", mult: 1.5}
		r := l.request(false)
		jobs = append(jobs, r.Job())
	}
	for i, res := range m.Run(jobs) {
		if res.Err != nil {
			return fmt.Errorf("preparing the snapshot: %w", res.Err)
		}
		b.base.shapes[i].tminNS = res.TMin * 1e9
	}
	// Every line shape's cached front becomes the re-walked reference for
	// /v1/front answers.
	eng, _ := m.Engine(defaultTech)
	entries := map[string]engine.CacheEntry{}
	for _, e := range eng.ExportCache() {
		entries[e.Key] = e
	}
	for i, sh := range b.base.shapes {
		if sh.net == nil {
			continue
		}
		key, ok := m.Signature(jobs[i])
		ent, found := entries[key]
		if !ok || !found {
			return fmt.Errorf("preparing the snapshot: shape %d is not cached", sh.id)
		}
		if err := b.chk.addReference(sh, ent); err != nil {
			return err
		}
	}
	b.snapPath = dir + "/design.snap"
	_, err = snapshot.SaveMulti(b.snapPath, m)
	return err
}

// startServer starts a fresh instance, restored when the workload
// restores.
func (b *bench) startServer(tr *Tracer) (*instance, error) {
	path := ""
	if b.restores() {
		path = b.snapPath
	}
	return startInstance(path, tr, b.workers)
}

// run drives the workload's traffic for dur against inst (flow-cold
// starts a fresh server per design and closes inst before the second).
// A closed loop also stops after limit ops when limit > 0.
func (b *bench) run(inst *instance, tr *Tracer, dur time.Duration, limit int) (*pass, error) {
	c := &client{hc: newClient(b.workers), chk: b.chk, tr: tr}
	defer c.hc.CloseIdleConnections()
	p := &pass{inst: inst}
	b.chk.resetCold()
	start0 := readCounters(inst.m)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var err error
	switch b.name {
	case "flow-cold":
		err = b.runFlowCold(c, p, tr, dur)
	case "flow-eco":
		eco := 0
		closedLoop(c, p, dur, limit, func() (*op, string) {
			o := newGen(b.seed*7919+int64(eco)+1, &b.ids).ecoBatch(b.base, eco)
			o.encode()
			eco++
			return o, inst.url
		})
	case "whatif-open":
		ops := newGen(b.seed*104729+3, &b.ids).whatifSchedule(b.base, dur)
		// Answers are kept and checked after the run, so a sender is
		// free again as soon as it has read its answer and no check
		// competes with the server for the CPUs while it runs.
		answers := make([]answer, len(ops))
		start, cpu0 := time.Now(), cpuTime()
		times := openLoop(ops, b.workers, start, func(i int, due, sent time.Time) {
			answers[i] = c.send(inst.url, ops[i], due, sent)
		})
		p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
		for i, o := range ops {
			p.add(o, c.check(o, answers[i]), times[i])
			answers[i] = answer{}
		}
	case "xtalk-bus":
		var queue []*op
		block := int64(0)
		closedLoop(c, p, dur, limit, func() (*op, string) {
			if len(queue) == 0 {
				queue = newGen(b.seed*1000003+block, &b.ids).xtalkBlock()
				block++
			}
			o := queue[0]
			queue = queue[1:]
			return o, inst.url
		})
	default:
		return nil, fmt.Errorf("unknown workload %q", b.name)
	}
	if err != nil {
		return nil, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	if b.name != "flow-cold" {
		p.cnt = readCounters(p.inst.m).sub(start0)
	}
	p.infl = max(p.infl, p.inst.maxInfl.Load())
	p.misses, p.coldKeys = b.chk.coldCounts()
	return p, nil
}

// runFlowCold submits one design per fresh server until dur has been
// spent on the designs themselves.
func (b *bench) runFlowCold(c *client, p *pass, tr *Tracer, dur time.Duration) error {
	var startErr error
	design := 0
	closedLoop(c, p, dur, 0, func() (*op, string) {
		if design > 0 {
			p.cnt = p.cnt.add(readCounters(p.inst.m))
			p.infl = max(p.infl, p.inst.maxInfl.Load())
			p.inst.close()
			inst, err := b.startServer(tr)
			if err != nil {
				startErr = err
				return nil, ""
			}
			p.inst = inst
		}
		d := newGen(b.seed*1000003+int64(design), &b.ids).design(coldDesign, fmt.Sprintf("d%d", design))
		design++
		o := &op{route: "batch", lines: d.lines}
		o.encode()
		return o, p.inst.url
	})
	p.cnt = p.cnt.add(readCounters(p.inst.m))
	return startErr
}

// closedLoop sends one op at a time until dur has been spent sending and
// reading answers, or limit ops have been sent when limit > 0. Time spent
// in next — generating inputs, starting servers — and in checking
// answers is not counted. A nil op from next ends the loop.
func closedLoop(c *client, p *pass, dur time.Duration, limit int, next func() (*op, string)) {
	start := time.Now()
	var excluded time.Duration
	for i := 0; time.Since(start)-excluded < dur && (limit == 0 || i < limit); i++ {
		g0 := time.Now()
		o, url := next()
		excluded += time.Since(g0)
		if o == nil {
			break
		}
		o.idx = i
		sent, cpu0 := time.Now(), cpuTime()
		a := c.send(url, o, sent, sent)
		cpu := cpuTime() - cpu0
		r := c.check(o, a)
		excluded += time.Since(a.done)
		p.add(o, r, timing{due: sent, ready: sent, sent: sent, done: a.done, cpu: cpu})
	}
	p.wall = time.Since(start) - excluded
}

var errNoOps = errors.New("the run completed no operations")

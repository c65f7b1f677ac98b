package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/snapshot"
	"github.com/rip-eda/rip/internal/tech"
)

// replayStats are the per-layer timings of the in-process replay.
type replayStats struct {
	mu         sync.Mutex
	decodeUS   []float64
	encodeUS   []float64
	respBytes  []float64
	hitUS      []float64
	missMS     []float64
	treeMissMS []float64
	busMS      []float64
	loadMS     float64
	failed     int
	attempted  int
	cold       map[int]*lineReq // one cold line request per shape id
}

func (rs *replayStats) note(f func()) {
	rs.mu.Lock()
	f()
	rs.mu.Unlock()
}

// replay re-runs the ops of a traced HTTP pass in process, on a fresh
// engine built like the server's, through the public calls the server
// makes: api decode, Multi.SolveContext / FrontContext / SolveBus, api
// encode. Open-loop ops keep their schedule; batch lines run on as many
// goroutines as the engine has workers. Every answer is checked again.
func (b *bench) replay(ops []*op, tr *Tracer) (*replayStats, error) {
	rs := &replayStats{cold: map[int]*lineReq{}}
	var m *engine.Multi
	fresh := func() error {
		var err error
		m, err = engine.NewMulti(tech.DefaultRegistry(), defaultTech, engine.Options{Workers: b.workers})
		if err != nil || !b.restores() {
			return err
		}
		sp := tr.Start("snapshot.load", 0, 0)
		_, err = snapshot.LoadMulti(b.snapPath, m)
		rs.loadMS = float64(sp.End()) / 1e6
		return err
	}
	if err := fresh(); err != nil {
		return nil, err
	}
	if b.name == "whatif-open" {
		openLoop(ops, b.workers, time.Now(), func(i int, _, _ time.Time) {
			b.replayOp(m, ops[i], tr, rs)
		})
		return rs, nil
	}
	for _, o := range ops {
		if b.name == "flow-cold" && o.idx > 0 {
			if err := fresh(); err != nil {
				return nil, err
			}
		}
		b.replayOp(m, o, tr, rs)
	}
	return rs, nil
}

// replayOp replays one op; a batch's lines fan out over the workers.
func (b *bench) replayOp(m *engine.Multi, o *op, tr *Tracer, rs *replayStats) {
	if o.route != "batch" {
		b.replayOne(m, o, o.body, 0, tr, rs)
		return
	}
	raws := bytes.Split(bytes.TrimSpace(o.body), []byte("\n"))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				b.replayOne(m, o, raws[i], i, tr, rs)
			}
		}()
	}
	for i := range raws {
		next <- i
	}
	close(next)
	wg.Wait()
}

// replayOne replays one request (or batch line) as replay.op ⊃
// {api.decode, engine.*, api.encode}, then checks the encoded answer
// outside the spans.
func (b *bench) replayOne(m *engine.Multi, o *op, raw []byte, line int, tr *Tracer, rs *replayStats) {
	ctx := context.Background()
	req := int64(o.idx) + 1
	root := tr.Start("replay.op", 0, req)
	dec := tr.Start("api.decode", root.ID(), req)
	var body []byte
	var decErr error
	var run func()
	switch o.route {
	case "bus":
		var br api.BusRequest
		if decErr = json.Unmarshal(raw, &br); decErr == nil {
			decErr = br.Validate()
		}
		run = func() {
			sp := tr.Start("engine.bus", root.ID(), req)
			res := m.SolveBus(ctx, br.Job())
			d := sp.End()
			rs.note(func() { rs.busMS = append(rs.busMS, float64(d)/1e6) })
			body = b.encode(tr, root.ID(), req, func() any { return api.FromBusResult(res) }, rs)
		}
	case "front":
		var r api.Request
		if r, decErr = api.ParseRequestKind(raw, api.KindLine); decErr == nil {
			decErr = r.ValidateFront()
		}
		run = func() {
			sp := tr.Start("engine.front", root.ID(), req)
			res := m.FrontContext(ctx, r.Job())
			rs.solved(sp.End(), res.CacheHit, res.TreeNet != nil)
			body = b.encode(tr, root.ID(), req, func() any { return api.FromFrontResult(res) }, rs)
		}
	default:
		var r api.Request
		if r, decErr = api.ParseRequestKind(raw, api.KindLine); decErr == nil {
			decErr = r.Validate()
		}
		run = func() {
			sp := tr.Start("engine.solve", root.ID(), req)
			res := m.SolveContext(ctx, r.Job())
			rs.solved(sp.End(), res.CacheHit, res.TreeNet != nil)
			if !res.CacheHit && res.Net != nil {
				l := o.lines[line]
				rs.note(func() { rs.cold[l.sh.id] = l })
			}
			body = b.encode(tr, root.ID(), req, func() any { return api.FromResult(res) }, rs)
		}
	}
	d := dec.End()
	rs.note(func() { rs.decodeUS = append(rs.decodeUS, float64(d)/1e3) })
	if decErr == nil {
		run()
	}
	root.End()

	failed := 1
	switch {
	case decErr != nil:
		b.chk.note(fmt.Errorf("replay op %d: %w", o.idx, decErr))
	case o.route == "batch":
		var r api.Response
		if err := json.Unmarshal(body, &r); err != nil {
			b.chk.note(err)
		} else if _, err := b.chk.checkLine(o.lines[line], &r); err != nil {
			b.chk.note(fmt.Errorf("replay op %d line %d: %w", o.idx, line, err))
		} else {
			failed = 0
		}
	default:
		failed = b.chk.check(o, 200, body).failed
	}
	rs.note(func() { rs.attempted++; rs.failed += failed })
}

// solved files one engine call's duration under hit, line miss or tree
// miss.
func (rs *replayStats) solved(d time.Duration, hit, isTree bool) {
	rs.note(func() {
		switch {
		case hit:
			rs.hitUS = append(rs.hitUS, float64(d)/1e3)
		case isTree:
			rs.treeMissMS = append(rs.treeMissMS, float64(d)/1e6)
		default:
			rs.missMS = append(rs.missMS, float64(d)/1e6)
		}
	})
}

// encode renders an answer the way the server does (api conversion plus
// json.Marshal) inside an api.encode span.
func (b *bench) encode(tr *Tracer, parent, req int64, conv func() any, rs *replayStats) []byte {
	en := tr.Start("api.encode", parent, req)
	body, err := json.Marshal(conv())
	d := en.End()
	if err != nil {
		b.chk.note(err)
	}
	rs.note(func() {
		rs.encodeUS = append(rs.encodeUS, float64(d)/1e3)
		rs.respBytes = append(rs.respBytes, float64(len(body)))
	})
	return body
}

// tminTimes times the τmin dynamic program alone — dp.Solver's
// MinimumDelayStats over dp.ReferenceOptions, under the request's
// crosstalk scenario — on up to limit of the replay's cold line shapes,
// so a miss's time splits into τmin and the rest.
func tminTimes(cold map[int]*lineReq, limit int) ([]float64, error) {
	reg := tech.DefaultRegistry()
	s := dp.NewSolver()
	ids := slices.Sorted(maps.Keys(cold))
	var out []float64
	for _, id := range ids[:min(limit, len(ids))] {
		l := cold[id]
		t, _, err := reg.Get(l.sh.tech)
		if err != nil {
			return nil, err
		}
		ev, err := delay.NewEvaluator(l.sh.net, t)
		if err != nil {
			return nil, err
		}
		opts, err := dp.ReferenceOptions()
		if err != nil {
			return nil, err
		}
		if l.aggressor != "" {
			agg, err := delay.ParseAggressor(l.aggressor)
			if err != nil {
				return nil, err
			}
			mode, err := delay.ParseSchemeMode(l.scheme)
			if err != nil {
				return nil, err
			}
			if opts.Coupling, err = delay.NewCoupling(t, agg, mode); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if _, _, err := s.MinimumDelayStats(ev, opts); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0))/1e6)
	}
	return out, nil
}

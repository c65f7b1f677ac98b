package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"time"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/snapshot"
	"github.com/rip-eda/rip/internal/tech"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// requests summarizes a pass per request: latency from due, queue wait,
// generator lag, and whether it succeeded.
type requests struct {
	latMS, queueMS, lagMS []float64
	okLatMS               []float64
	ok, sent, okOps, ops  int
	failed                int
}

func summarizePass(p *pass) requests {
	var r requests
	for i, o := range p.ops {
		t, rep := p.times[i], p.replies[i]
		ms := float64(t.latency()) / 1e6
		r.latMS = append(r.latMS, ms)
		r.queueMS = append(r.queueMS, float64(t.queue())/1e6)
		r.lagMS = append(r.lagMS, float64(t.lag())/1e6)
		r.sent++
		r.ops += o.size()
		r.failed += rep.out.failed
		r.okOps += o.size() - rep.out.failed
		if rep.out.failed == 0 {
			r.ok++
			r.okLatMS = append(r.okLatMS, ms)
		}
	}
	return r
}

// endToEnd computes the untraced run's metrics. The program's work is
// taken in CPU time (cpu_us_per_op): on a shared virtual machine the
// share of wall time the hypervisor steals moves every wall-clock figure
// of the same code by more than its bound from one run to the next. The
// wall-clock throughput and latencies are printed with the run and are
// per-layer metrics of the traced run (wall.*).
func endToEnd(name string, p *pass, setups []float64) metrics {
	r := summarizePass(p)
	m := metrics{}
	m.set("cpu_us_per_op", cpuPerOp(name, p, r), "us")
	met := 0
	for _, ms := range r.okLatMS {
		if ms <= sloMS[name] {
			met++
		}
	}
	m.set("slo_share", float64(met)/float64(r.sent), "fraction")
	m.set("setup_s", percentile(setups, 0.5), "s")
	return m
}

// cpuPerOp is the process CPU time per successful operation, in µs. In
// the open loop it is taken over the whole run. A closed loop records
// each request's CPU time from send to answer read, so input generation,
// flow-cold's server starts and the answer check are not counted; its
// requests are cut into ten consecutive slices and the median slice's
// CPU time per operation is reported.
func cpuPerOp(name string, p *pass, r requests) float64 {
	if name == "whatif-open" {
		return float64(p.cpu) / 1e3 / float64(max(r.okOps, 1))
	}
	const slices = 10
	n := len(p.ops)
	var perOp []float64
	for s := 0; s < min(slices, n); s++ {
		lo, hi := s*n/slices, (s+1)*n/slices
		if n < slices {
			lo, hi = s, s+1
		}
		ok, cpu := 0, time.Duration(0)
		for i := lo; i < hi; i++ {
			ok += p.ops[i].size() - p.replies[i].out.failed
			cpu += p.times[i].cpu
		}
		perOp = append(perOp, float64(cpu)/1e3/float64(max(ok, 1)))
	}
	return percentile(perOp, 0.5)
}

// opsPerSecond is the run's wall-clock throughput. In the open loop it
// is the successful operations over the run's wall time, which reads the
// offered rate unless the server falls behind the schedule. A closed
// loop's run is cut into ten slices of consecutive requests, each slice's
// throughput is its successful operations over the time its requests
// took, and the median slice is reported, so one stalled stretch does not
// set the figure.
func opsPerSecond(name string, p *pass, r requests) float64 {
	if name == "whatif-open" {
		return float64(r.okOps) / p.wall.Seconds()
	}
	const slices = 10
	n := len(p.ops)
	var rates []float64
	for s := 0; s < min(slices, n); s++ {
		lo, hi := s*n/slices, (s+1)*n/slices
		if n < slices {
			lo, hi = s, s+1
		}
		ok, busy := 0, time.Duration(0)
		for i := lo; i < hi; i++ {
			ok += p.ops[i].size() - p.replies[i].out.failed
			busy += p.times[i].done.Sub(p.times[i].due)
		}
		rates = append(rates, float64(ok)/busy.Seconds())
	}
	return percentile(rates, 0.5)
}

// quarterP99 is the median of the nearest-rank p99 latencies of the
// run's four quarters (consecutive requests in send order), over the
// requests that succeeded. A quarter of the open loop holds ~1500
// requests, so its p99 still has more than ten samples beyond it; the
// median keeps one host stall, which on a shared machine can put dozens
// of queued requests into one quarter's tail, from setting the figure.
func quarterP99(p *pass) float64 {
	const quarters = 4
	n := len(p.ops)
	var p99s []float64
	for q := 0; q < min(quarters, n); q++ {
		lo, hi := q*n/quarters, (q+1)*n/quarters
		if n < quarters {
			lo, hi = q, q+1
		}
		var lat []float64
		for i := lo; i < hi; i++ {
			if p.replies[i].out.failed == 0 {
				lat = append(lat, float64(p.times[i].latency())/1e6)
			}
		}
		if len(lat) > 0 {
			p99s = append(p99s, percentile(lat, 0.99))
		}
	}
	return percentile(p99s, 0.5)
}

// snapTrip is a snapshot round trip of a run's final cache.
type snapTrip struct {
	loadMS  float64 // median snapshot.LoadMulti time
	entries int
	bytes   int64
}

// snapshotRoundTrip saves the cache m holds and restores it into fresh
// engines five times: how long a restart of this workload's server would
// spend restoring its cache.
func snapshotRoundTrip(dir string, m *engine.Multi, workers int) (snapTrip, error) {
	path := dir + "/final.snap"
	if _, err := snapshot.SaveMulti(path, m); err != nil {
		return snapTrip{}, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return snapTrip{}, err
	}
	st := snapTrip{bytes: fi.Size()}
	var loads []float64
	for i := 0; i < 5; i++ {
		fresh, err := engine.NewMulti(tech.DefaultRegistry(), defaultTech, engine.Options{Workers: workers})
		if err != nil {
			return snapTrip{}, err
		}
		t0 := time.Now()
		ls, err := snapshot.LoadMulti(path, fresh)
		if err != nil {
			return snapTrip{}, err
		}
		loads = append(loads, float64(time.Since(t0))/1e6)
		st.entries = ls.Entries
	}
	st.loadMS = percentile(loads, 0.5)
	return st, nil
}

// heapLiveMB is the bytes of live heap objects after a forced
// collection. The second collection frees what sync.Pools kept through
// the first (the DP solvers' scratch arenas), which is not cache.
// HeapInuse would also count the free slots of every span that still
// holds one live object, which depends on how fragmented earlier servers
// of the same run left the heap, not on the server measured.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// perLayer computes the traced run's per-layer metrics from the traced
// HTTP pass (its spans and counter deltas), the in-process replay and
// the untraced half-run it is compared against.
func (b *bench) perLayer(untraced, p *pass, httpSpans []Span, rs *replayStats, replaySpans []Span, snap snapTrip) (metrics, error) {
	m := metrics{}
	r := summarizePass(p)
	m.set("client.requests", float64(r.sent), "count")
	m.set("client.queue_ms.p99", percentile(r.queueMS, 0.99), "ms")
	m.set("client.gen_lag_ms.p99", percentile(r.lagMS, 0.99), "ms")

	serverMS := map[int64]float64{}
	for _, s := range httpSpans {
		if s.Name == "server.http" {
			serverMS[s.Req] = float64(s.dur()) / 1e6
		}
	}
	srv := durationsMS(httpSpans, "server.http")
	m.set("server.http_ms.p50", percentile(srv, 0.5), "ms")
	m.set("server.http_ms.p99", percentile(srv, 0.99), "ms")
	rejected := 0
	for _, rep := range p.replies {
		if rep.status == 429 || rep.status == 503 {
			rejected++
		}
	}
	m.set("server.rejected", float64(rejected), "count")
	m.set("server.inflight_max", float64(p.infl), "count")

	m.set("api.decode_us.p50", percentile(rs.decodeUS, 0.5), "us")
	m.set("api.encode_us.p50", percentile(rs.encodeUS, 0.5), "us")
	m.set("api.resp_bytes.mean", mean(rs.respBytes), "bytes")

	c := p.cnt
	m.set("engine.hit_us.p50", percentile(rs.hitUS, 0.5), "us")
	m.set("engine.hit_us.p99", percentile(rs.hitUS, 0.99), "us")
	m.set("engine.miss_ms.p50", percentile(rs.missMS, 0.5), "ms")
	m.set("engine.miss_ms.p99", percentile(rs.missMS, 0.99), "ms")
	m.set("engine.tree_miss_ms.p50", percentile(rs.treeMissMS, 0.5), "ms")
	m.set("engine.hits", float64(c.cache.Hits), "count")
	m.set("engine.misses", float64(c.cache.Misses), "count")
	m.set("engine.rejected", float64(c.cache.Rejected), "count")
	lookups := c.cache.Hits + c.cache.Misses + c.cache.Rejected
	m.set("engine.hit_rate", ratio(float64(c.cache.Hits), float64(lookups)), "ratio")
	m.set("engine.front_lookups", float64(c.front.Lookups), "count")
	m.set("engine.front_solves", float64(c.front.Solves), "count")
	m.set("engine.front_points", float64(c.front.Points), "count")
	m.set("engine.useful_solve_ratio", ratio(float64(p.coldKeys), float64(p.misses)), "ratio")
	m.set("engine.entries", float64(c.cache.Entries), "count")
	m.set("engine.evictions", float64(c.cache.Evictions), "count")

	tmin, err := tminTimes(rs.cold, 60)
	if err != nil {
		return nil, err
	}
	m.set("dp.solves", float64(c.dp.Solves), "count")
	m.set("dp.generated", float64(c.dp.Generated), "count")
	m.set("dp.kept", float64(c.dp.Kept), "count")
	m.set("dp.max_per_level", float64(c.dp.MaxPerLevel), "count")
	m.set("dp.budget_aborts", float64(c.dp.BudgetAborts), "count")
	m.set("dp.tmin_ms.p50", percentile(tmin, 0.5), "ms")
	m.set("tree.solves", float64(c.tree.Solves), "count")
	m.set("tree.generated", float64(c.tree.Generated), "count")
	m.set("tree.kept", float64(c.tree.Kept), "count")
	m.set("tree.max_per_node", float64(c.tree.MaxPerNode), "count")

	m.set("bus.solve_ms.p50", percentile(rs.busMS, 0.5), "ms")
	m.set("bus.solve_ms.p99", percentile(rs.busMS, 0.99), "ms")
	m.set("bus.jobs", float64(c.bus.Jobs), "count")
	m.set("bus.tracks", float64(c.bus.Tracks), "count")
	m.set("bus.exact", float64(c.bus.Exact), "count")
	m.set("bus.iterated", float64(c.bus.Iterated), "count")
	m.set("bus.sweeps", float64(c.bus.Sweeps), "count")
	// Coupled front solves not caused by coupled optimize misses are the
	// bus member solves.
	coupledMisses := 0
	for i, o := range p.ops {
		if o.route == "optimize" && o.lines[0].aggressor != "" && !p.replies[i].out.hit {
			coupledMisses++
		}
	}
	m.set("bus.fronts_per_job", ratio(float64(c.cpl.Solves)-float64(coupledMisses), float64(c.bus.Jobs)), "ratio")
	m.set("coupling.jobs", float64(c.cpl.Jobs), "count")
	m.set("coupling.solves", float64(c.cpl.Solves), "count")

	m.set("snapshot.load_ms", snap.loadMS, "ms")
	m.set("snapshot.entries", float64(snap.entries), "count")
	m.set("snapshot.bytes", float64(snap.bytes), "bytes")
	m.set("go.alloc_kb_per_op", float64(p.alloc)/1024/float64(max(r.ops, 1)), "kB")
	m.set("go.gc_cycles", float64(p.gcs), "count")

	// The HTTP coverage is the share of the client's round trips that the
	// server.http spans under them cover; the rest is loopback transport.
	hs := summarize(httpSpans, "client.roundtrip")
	rsum := summarize(replaySpans, "replay.op")
	for _, name := range []string{"client.op", "client.queue", "client.roundtrip", "client.check", "server.http"} {
		m.set("self_ms."+name, hs.selfMS[name], "ms")
	}
	for _, name := range []string{"replay.op", "api.decode", "api.encode"} {
		m.set("self_ms."+name, rsum.selfMS[name], "ms")
	}
	m.set("self_ms.engine", rsum.selfMS["engine.solve"]+rsum.selfMS["engine.front"]+rsum.selfMS["engine.bus"], "ms")
	m.set("trace.coverage_http", hs.coverage, "ratio")
	m.set("trace.coverage_replay", rsum.coverage, "ratio")
	u := summarizePass(untraced)
	m.set("wall.ops_per_s", opsPerSecond(b.name, untraced, u), "ops/s")
	m.set("wall.p50_ms", percentile(u.okLatMS, 0.5), "ms")
	m.set("wall.p99_ms", quarterP99(untraced), "ms")
	m.set("trace.overhead_pct", 100*(ratio(percentile(r.okLatMS, 0.5), percentile(u.okLatMS, 0.5))-1), "%")

	tail, err := b.tail(p, r, serverMS)
	if err != nil {
		return nil, err
	}
	for k, v := range tail {
		m[k] = v
	}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tail splits the latency of the requests at or above the pass's p99
// into shares: client queue wait, transport (the rest of the client's
// round trip outside server.http), hits' typical server time, hits'
// server time beyond it (waiting for admission or engine slots), misses'
// own solve time (the same request solved alone on an idle engine) and
// misses' server time beyond it. Batch requests count their server time
// as miss time, without a split.
func (b *bench) tail(p *pass, r requests, serverMS map[int64]float64) (metrics, error) {
	cut := percentile(r.latMS, 0.99)
	var hitSrv []float64
	for i, o := range p.ops {
		if p.replies[i].out.hit {
			hitSrv = append(hitSrv, serverMS[int64(o.idx)+1])
		}
	}
	typicalHit := percentile(hitSrv, 0.5)
	var total, queue, transport, hitBase, hitWait, missDP, missWait float64
	n, hits := 0, 0
	for i, o := range p.ops {
		lat := r.latMS[i]
		if lat < cut {
			continue
		}
		n++
		srv := serverMS[int64(o.idx)+1]
		total += lat
		queue += r.queueMS[i]
		transport += lat - r.queueMS[i] - srv
		switch {
		case p.replies[i].out.hit:
			hits++
			base := min(srv, typicalHit)
			hitBase += base
			hitWait += srv - base
		case o.route == "batch":
			missDP += srv
		default:
			alone, err := b.solveAlone(o)
			if err != nil {
				return nil, err
			}
			own := min(srv, alone)
			missDP += own
			missWait += srv - own
		}
	}
	m := metrics{}
	m.set("tail.n", float64(n), "count")
	m.set("tail.hits", float64(hits), "count")
	m.set("tail.queue_share", ratio(queue, total), "ratio")
	m.set("tail.transport_share", ratio(transport, total), "ratio")
	m.set("tail.hit_share", ratio(hitBase, total), "ratio")
	m.set("tail.hit_wait_share", ratio(hitWait, total), "ratio")
	m.set("tail.miss_dp_share", ratio(missDP, total), "ratio")
	m.set("tail.miss_wait_share", ratio(missWait, total), "ratio")
	return m, nil
}

// solveAlone times one single-request op on a fresh, idle engine: the
// request's own solve time with nothing to wait for.
func (b *bench) solveAlone(o *op) (float64, error) {
	m, err := engine.NewMulti(tech.DefaultRegistry(), defaultTech, engine.Options{Workers: b.workers})
	if err != nil {
		return 0, err
	}
	ctx := context.Background()
	t0 := time.Now()
	switch o.route {
	case "bus":
		var br api.BusRequest
		if err := json.Unmarshal(o.body, &br); err != nil {
			return 0, err
		}
		m.SolveBus(ctx, br.Job())
	default:
		r, err := api.ParseRequestKind(o.body, api.KindLine)
		if err != nil {
			return 0, err
		}
		if o.route == "front" {
			m.FrontContext(ctx, r.Job())
		} else {
			m.SolveContext(ctx, r.Job())
		}
	}
	return float64(time.Since(t0)) / 1e6, nil
}

package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// shape is one distinct net geometry. Requests for the same shape carry
// other names and budgets, so the engine answers them from one cached
// front.
type shape struct {
	id     int
	tech   string
	net    *wire.Net // line shape, or nil
	tree   *tree.Net // tree shape, or nil
	tminNS float64   // known for snapshot-restored shapes, else 0
}

// lineReq is one net request: a named instance of a shape under one
// budget form.
type lineReq struct {
	sh        *shape
	name      string
	mult      float64   // target_mult, or 0
	sweep     []float64 // targets_ns, or nil
	aggressor string
	scheme    string
}

// request renders the wire request. front drops the budget.
func (l *lineReq) request(front bool) api.Request {
	r := api.Request{Tech: l.sh.tech, Aggressor: l.aggressor, Scheme: l.scheme}
	if l.sh.net != nil {
		n := *l.sh.net
		n.Name = l.name
		r.Net = &n
	} else {
		t := *l.sh.tree
		t.Name = l.name
		r.Tree = &t
	}
	if !front {
		r.TargetMult = l.mult
		r.TargetsNS = l.sweep
	}
	return r
}

// key identifies the question asked, so every answer to the same
// (shape, budget, scenario) can be required to agree.
func (l *lineReq) key() string {
	return fmt.Sprintf("%d|%g|%v|%s|%s", l.sh.id, l.mult, l.sweep, l.aggressor, l.scheme)
}

// busReq is one /v1/bus group.
type busReq struct {
	geo    int
	tech   string
	tracks []*wire.Net
	mult   float64
}

func (b *busReq) key() string { return fmt.Sprintf("bus|%d|%d|%g", b.geo, len(b.tracks), b.mult) }

// op is one request the client sends: a JSONL batch, one optimize or
// front request, or one bus group.
type op struct {
	idx   int
	route string        // "batch", "optimize", "front" or "bus"
	due   time.Duration // open-loop send time, from the start of the run
	lines []*lineReq    // batch lines, or the single net of optimize/front
	bus   *busReq
	body  []byte
}

// size is the number of operations the request counts for: one per
// batch line, one otherwise.
func (o *op) size() int {
	if o.route == "batch" {
		return len(o.lines)
	}
	return 1
}

func (o *op) encode() {
	switch o.route {
	case "batch":
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, l := range o.lines {
			enc.Encode(l.request(false)) //nolint:errcheck // bytes.Buffer
		}
		o.body = buf.Bytes()
	case "bus":
		o.body, _ = json.Marshal(api.BusRequest{Tracks: o.bus.tracks, Tech: o.bus.tech, TargetMult: o.bus.mult})
	default:
		o.body, _ = json.Marshal(o.lines[0].request(o.route == "front"))
	}
}

// gen draws shapes and budgets from one seeded source.
type gen struct {
	rng  *rand.Rand
	line map[string]netgen.Config
	tcfg netgen.TreeConfig
	ids  *int // shared shape counter, so shape IDs stay unique across gens
}

func newGen(seed int64, ids *int) *gen {
	reg := tech.DefaultRegistry()
	g := &gen{rng: rand.New(rand.NewSource(seed)), line: map[string]netgen.Config{}, ids: ids}
	for _, name := range reg.Names() {
		t, _, _ := reg.Get(name)
		cfg, err := netgen.DefaultConfig(t)
		if err != nil {
			panic(err) // built-in nodes always have metal4/metal5
		}
		g.line[name] = cfg
	}
	t180, _, _ := reg.Get(defaultTech)
	tc, err := netgen.DefaultTreeConfig(t180)
	if err != nil {
		panic(err)
	}
	g.tcfg = tc
	return g
}

// xtalkConfig is the line distribution of the crosstalk workload: the
// paper's layers on shorter nets (3 segments of 0.6–1.2 mm), because a
// coupled solve on a full-length net takes seconds and a run would see
// only a handful of them. The fixed segment count keeps the cost of a
// cold solve, and so the run's figures, from depending on which net
// sizes a seed draws.
func xtalkConfig(cfg netgen.Config) netgen.Config {
	cfg.MinSegments, cfg.MaxSegments = 3, 3
	cfg.MinSegLen, cfg.MaxSegLen = 600*units.Micron, 1200*units.Micron
	return cfg
}

// freshConfig is the distribution of the what-if workload's fresh line
// shapes: the paper's, at its smallest size of 4 segments. A fixed size
// keeps the latency tail the misses cause from depending on which net
// sizes a seed draws, and the small size keeps the two connections from
// being held by overlapping misses so often that the tail swings with
// the machine's speed.
func freshConfig(cfg netgen.Config) netgen.Config {
	cfg.MinSegments, cfg.MaxSegments = 4, 4
	return cfg
}

// segStratum narrows cfg to one segment count, the k-th (mod the range)
// of [MinSegments, MaxSegments]. Shapes drawn for k = o, o+1, … with a
// random offset o keep netgen's uniform segment count but cover its range
// evenly, so a seed's designs do not cost more or less than another's
// because of which net sizes it happened to draw.
func segStratum(cfg netgen.Config, k int) netgen.Config {
	cfg.MinSegments += k % (cfg.MaxSegments - cfg.MinSegments + 1)
	cfg.MaxSegments = cfg.MinSegments
	return cfg
}

func (g *gen) newID() int { *g.ids++; return *g.ids }

func (g *gen) lineShape(techName string, cfg netgen.Config) *shape {
	id := g.newID()
	n, err := netgen.Generate(g.rng, cfg, fmt.Sprintf("s%d", id))
	if err != nil {
		panic(err) // the default distributions always generate
	}
	return &shape{id: id, tech: techName, net: n}
}

func (g *gen) treeShape() *shape {
	id := g.newID()
	n, err := netgen.GenerateTree(g.rng, g.tcfg, fmt.Sprintf("s%d", id))
	if err != nil {
		panic(err)
	}
	return &shape{id: id, tech: defaultTech, tree: n}
}

// mult draws a relative budget in [1.1, 2.0], rounded to 0.001.
func (g *gen) mult() float64 { return math.Round((1.1+0.9*g.rng.Float64())*1000) / 1000 }

// design is a chip's nets: shapes, each repeated a Zipf-skewed number of
// times (as arrayed buses and macros repeat), in a shuffled order.
type design struct {
	shapes []*shape
	lines  []*lineReq
}

type designCfg struct {
	lineShapes, treeShapes int
	zipfS                  float64 // skew of the repeat counts
	maxRepeat              uint64  // repeats per shape lie in [1, maxRepeat]
	lines                  int     // total lines; every design has exactly this many
}

// Design sizes. flow-cold designs are mostly cold work; the eco/what-if
// design is repeated more, so its re-run is mostly hits. A fixed line
// count keeps one design's latency comparable across seeds.
var (
	coldDesign = designCfg{lineShapes: 20, treeShapes: 35, zipfS: 1.3, maxRepeat: 8, lines: 130}
	ecoDesign  = designCfg{lineShapes: 40, treeShapes: 70, zipfS: 1.1, maxRepeat: 40, lines: 1000}
)

func (g *gen) design(cfg designCfg, prefix string) *design {
	d := &design{}
	lc := g.line[defaultTech]
	off := g.rng.Intn(lc.MaxSegments - lc.MinSegments + 1)
	for i := 0; i < cfg.lineShapes; i++ {
		d.shapes = append(d.shapes, g.lineShape(defaultTech, segStratum(lc, off+i)))
	}
	for i := 0; i < cfg.treeShapes; i++ {
		d.shapes = append(d.shapes, g.treeShape())
	}
	z := rand.NewZipf(g.rng, cfg.zipfS, 1, cfg.maxRepeat-1)
	reps := make([]int, len(d.shapes))
	total := 0
	for i := range reps {
		reps[i] = 1 + int(z.Uint64())
		total += reps[i]
	}
	// Bring the total to cfg.lines: add repeats to random shapes, or take
	// them from the most repeated ones.
	for ; total < cfg.lines; total++ {
		reps[g.rng.Intn(len(reps))]++
	}
	for ; total > cfg.lines; total-- {
		i := 0
		for j, r := range reps {
			if r > reps[i] {
				i = j
			}
		}
		reps[i]--
	}
	for i, sh := range d.shapes {
		for r := 0; r < reps[i]; r++ {
			d.lines = append(d.lines, &lineReq{sh: sh, name: fmt.Sprintf("%s.%d.%d", prefix, sh.id, r), mult: g.mult()})
		}
	}
	g.rng.Shuffle(len(d.lines), func(i, j int) { d.lines[i], d.lines[j] = d.lines[j], d.lines[i] })
	return d
}

// freshShape draws a shape outside any design: two lines for every tree,
// as in the designs' mix.
func (g *gen) freshShape() *shape {
	if g.rng.Intn(3) < 2 {
		return g.lineShape(defaultTech, freshConfig(g.line[defaultTech]))
	}
	return g.treeShape()
}

// sweepNS is a 10-budget targets_ns ladder from 1.1 to 2.0 τmin.
func sweepNS(tminNS float64) []float64 {
	out := make([]float64, 10)
	for k := range out {
		out[k] = math.Round(tminNS*(1.1+0.1*float64(k))*1e6) / 1e6
	}
	return out
}

// ecoBatch re-runs the design after an ECO: about half the lines get new
// budgets, about a tenth become 10-budget sweeps, and one new line shape
// and two new tree shapes are added, twice each. The i-th batch's new
// line shape has the i-th segment count of netgen's range, so every run of
// consecutive batches covers the range evenly.
func (g *gen) ecoBatch(d *design, i int) *op {
	o := &op{route: "batch"}
	for _, l := range d.lines {
		nl := *l
		switch u := g.rng.Float64(); {
		case u < 0.1:
			nl.mult, nl.sweep = 0, sweepNS(l.sh.tminNS)
		case u < 0.6:
			nl.mult = g.mult()
		}
		o.lines = append(o.lines, &nl)
	}
	fresh := []*shape{g.lineShape(defaultTech, segStratum(g.line[defaultTech], i)), g.treeShape(), g.treeShape()}
	for _, sh := range fresh {
		for r := 0; r < 2; r++ {
			nl := &lineReq{sh: sh, name: fmt.Sprintf("eco%d.%d.%d", i, sh.id, r), mult: g.mult()}
			at := g.rng.Intn(len(o.lines) + 1)
			o.lines = append(o.lines[:at], append([]*lineReq{nl}, o.lines[at:]...)...)
		}
	}
	return o
}

// What-if traffic: arrivals at whatifRate requests/s; a tenth of the
// requests are fresh shapes arriving as bursts of 3.
const (
	whatifRate  = 300.0
	burstShare  = 0.10
	burstSize   = 3
	pOptimize   = 0.80 / 0.90 // among single requests
	pSweep      = 0.88 / 0.90
	sloWhatifMS = 50.0
)

// whatifSchedule draws the open-loop schedule for the given duration.
func (g *gen) whatifSchedule(d *design, dur time.Duration) []*op {
	// With a share b of events being bursts of k, requests/event is
	// 1+(k−1)b and the fresh share is kb/(1+(k−1)b).
	pb := burstShare / (burstSize - (burstSize-1)*burstShare)
	eventRate := whatifRate / (1 + (burstSize-1)*pb)
	var lineShapes []*lineReq
	for _, l := range d.lines {
		if l.sh.net != nil {
			lineShapes = append(lineShapes, l)
		}
	}
	var ops []*op
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / eventRate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			break
		}
		if g.rng.Float64() < pb {
			sh := g.freshShape()
			offset := time.Duration(0)
			for r := 0; r < burstSize; r++ {
				l := &lineReq{sh: sh, name: fmt.Sprintf("w%d.%d", sh.id, r), mult: g.mult()}
				ops = append(ops, &op{route: "optimize", due: due + offset, lines: []*lineReq{l}})
				offset += time.Duration((1 + 2*g.rng.Float64()) * float64(time.Millisecond))
			}
			continue
		}
		hot := d.lines[g.rng.Intn(len(d.lines))]
		l := &lineReq{sh: hot.sh, name: fmt.Sprintf("w%d.%d", hot.sh.id, len(ops))}
		o := &op{route: "optimize", due: due, lines: []*lineReq{l}}
		switch u := g.rng.Float64(); {
		case u < pOptimize:
			l.mult = g.mult()
		case u < pSweep:
			l.sweep = sweepNS(hot.sh.tminNS)
		default:
			fl := lineShapes[g.rng.Intn(len(lineShapes))]
			l.sh = fl.sh
			o.route = "front"
		}
		ops = append(ops, o)
	}
	// A stable sort keeps equal-due requests in generation order.
	slices.SortStableFunc(ops, func(a, b *op) int { return cmp.Compare(a.due, b.due) })
	for i, o := range ops {
		o.idx = i
		o.encode()
	}
	return ops
}

// xtalkBlock is one block of the crosstalk sign-off stream: a bus
// geometry on each of 90nm and 65nm, requested three times under other
// budgets with the track order permuted, and two coupled line shapes on
// each node, requested five times under other budgets; shuffled.
func (g *gen) xtalkBlock() []*op {
	var ops []*op
	for _, node := range []string{"90nm", "65nm"} {
		cfg := xtalkConfig(g.line[node])
		geo := g.newID()
		k := 2 + g.rng.Intn(5)
		tracks, err := netgen.BusGroup(g.rng, cfg, fmt.Sprintf("bus%d", geo), k)
		if err != nil {
			panic(err)
		}
		for r := 0; r < 3; r++ {
			perm := make([]*wire.Net, k)
			for i, p := range g.rng.Perm(k) {
				t := *tracks[p]
				t.Name = fmt.Sprintf("bus%d.r%d.t%d", geo, r, i)
				perm[i] = &t
			}
			ops = append(ops, &op{route: "bus", bus: &busReq{geo: geo, tech: node, tracks: perm, mult: g.mult()}})
		}
		for _, scheme := range []string{"staggered", "auto"} {
			sh := g.lineShape(node, cfg)
			for r := 0; r < 5; r++ {
				l := &lineReq{sh: sh, name: fmt.Sprintf("x%d.%d", sh.id, r), mult: g.mult(), aggressor: "worst", scheme: scheme}
				ops = append(ops, &op{route: "optimize", lines: []*lineReq{l}})
			}
		}
	}
	g.rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, o := range ops {
		o.encode()
	}
	return ops
}

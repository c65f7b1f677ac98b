package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/dp"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/repeater"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/units"
	"github.com/rip-eda/rip/internal/wire"
)

// Relative tolerance for re-walked delays and summed widths: JSON carries
// float64 exactly, and positions only pass through a µm conversion.
const relTol = 1e-9

// refPoint is one point of a reference front, its delay re-walked with
// the public Elmore evaluator.
type refPoint struct {
	delayNS, widthU float64
	repeaters       int
}

type refFront struct {
	tminNS float64
	points []refPoint
}

// checker validates every answer the program gives. It is safe for
// concurrent use.
type checker struct {
	reg *tech.Registry
	lib repeater.Library

	mu     sync.Mutex
	seen   map[string]string  // question key → first answer's summary
	fronts map[int]refFront   // shape id → reference front
	tmins  map[string]float64 // shape and scenario → τmin its first answer implied
	// golden collects per-op summaries for ops with idx < goldenOps.
	goldenOps int
	golden    map[int]string
	misses    int             // answers served cold
	coldKeys  map[string]bool // distinct shapes served cold
	errs      []string
}

func newChecker(goldenOps int) *checker {
	ref, err := dp.ReferenceOptions()
	if err != nil {
		panic(err)
	}
	return &checker{
		reg:       tech.DefaultRegistry(),
		lib:       ref.Library,
		seen:      map[string]string{},
		fronts:    map[int]refFront{},
		tmins:     map[string]float64{},
		goldenOps: goldenOps,
		golden:    map[int]string{},
		coldKeys:  map[string]bool{},
	}
}

func (c *checker) tech(name string) *tech.Technology {
	t, _, err := c.reg.Get(name)
	if err != nil {
		panic(err)
	}
	return t
}

// note records a failure message (the first few are printed).
func (c *checker) note(err error) {
	c.mu.Lock()
	if len(c.errs) < 10 {
		c.errs = append(c.errs, err.Error())
	}
	c.mu.Unlock()
}

// agree requires every answer to one question to be the same.
func (c *checker) agree(key, summary string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.seen[key]; ok && prev != summary {
		return fmt.Errorf("answer %q differs from earlier answer %q to the same question", summary, prev)
	}
	c.seen[key] = summary
	return nil
}

// sameTmin requires every budgeted answer for one shape and scenario to
// resolve its budget from the same τmin: target_ns / target_mult. The
// τmin of a snapshot-restored shape is known and checked exactly; for a
// fresh shape this catches an engine that ignores target_mult or
// resolves the budget from anything but the shape's own τmin.
func (c *checker) sameTmin(l *lineReq, targetNS float64) error {
	tmin := targetNS / l.mult
	key := fmt.Sprintf("%d|%s|%s", l.sh.id, l.aggressor, l.scheme)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.tmins[key]; ok && !near(prev, tmin) {
		return fmt.Errorf("target %g ns at %g × τmin implies τmin %g ns; an earlier answer implied %g ns",
			targetNS, l.mult, tmin, prev)
	}
	c.tmins[key] = tmin
	return nil
}

func (c *checker) noteCold(l *lineReq) {
	c.mu.Lock()
	c.misses++
	c.coldKeys[fmt.Sprintf("%d|%s|%s", l.sh.id, l.aggressor, l.scheme)] = true
	c.mu.Unlock()
}

// resetCold starts a new count of answers served cold.
func (c *checker) resetCold() {
	c.mu.Lock()
	c.misses, c.coldKeys = 0, map[string]bool{}
	c.mu.Unlock()
}

// coldCounts returns the answers served cold and the distinct shapes
// among them since the last resetCold.
func (c *checker) coldCounts() (answers, shapes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses, len(c.coldKeys)
}

// dropAnswers forgets the recorded answers, so the heap measured after a
// run holds the server's state, not the checker's.
func (c *checker) dropAnswers() {
	c.mu.Lock()
	c.seen, c.fronts, c.tmins = map[string]string{}, map[int]refFront{}, map[string]float64{}
	c.mu.Unlock()
}

func (c *checker) recordGolden(idx int, summary string) {
	if idx >= c.goldenOps {
		return
	}
	c.mu.Lock()
	c.golden[idx] = summary
	c.mu.Unlock()
}

// goldenDigest hashes the recorded summaries of ops 0..goldenOps−1.
func (c *checker) goldenDigest() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := fnv.New64a()
	for i := 0; i < c.goldenOps; i++ {
		s, ok := c.golden[i]
		if !ok {
			s = "missing"
		}
		fmt.Fprintf(h, "%d:%s\n", i, s)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// outcome is the checked result of one op.
type outcome struct {
	failed int  // operations of the op that failed
	hit    bool // single-net ops: answered from cache
}

// check validates one op's HTTP answer. A non-200 status fails the whole
// op.
func (c *checker) check(o *op, status int, body []byte) outcome {
	if status != 200 {
		c.note(fmt.Errorf("op %d (%s): HTTP %d: %.200s", o.idx, o.route, status, body))
		c.recordGolden(o.idx, "ERR")
		return outcome{failed: o.size()}
	}
	switch o.route {
	case "batch":
		return c.checkBatch(o, body)
	case "front":
		var fr api.FrontResponse
		err := json.Unmarshal(body, &fr)
		if err == nil {
			err = c.checkFront(o.lines[0], &fr)
		}
		return c.single(o, err, fr.CacheHit, fmt.Sprintf("front/%d", len(fr.Points)))
	case "bus":
		var br api.BusResponse
		err := json.Unmarshal(body, &br)
		sum := ""
		if err == nil {
			sum, err = c.checkBus(o.bus, &br)
		}
		return c.single(o, err, false, sum)
	}
	var r api.Response
	err := json.Unmarshal(body, &r)
	sum := ""
	if err == nil {
		sum, err = c.checkLine(o.lines[0], &r)
	}
	return c.single(o, err, r.CacheHit, sum)
}

func (c *checker) single(o *op, err error, hit bool, summary string) outcome {
	if err != nil {
		c.note(fmt.Errorf("op %d (%s): %w", o.idx, o.route, err))
		c.recordGolden(o.idx, "ERR")
		return outcome{failed: 1, hit: hit}
	}
	c.recordGolden(o.idx, summary)
	return outcome{hit: hit}
}

// checkBatch validates a JSONL batch answer: one line per request line,
// in input order, each a correct answer. A missing line fails.
func (c *checker) checkBatch(o *op, body []byte) outcome {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var out outcome
	var sums []string
	i := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if i >= len(o.lines) {
			c.note(fmt.Errorf("op %d: answer line %d has no request", o.idx, i))
			out.failed++
			i++
			continue
		}
		var r api.Response
		err := json.Unmarshal(sc.Bytes(), &r)
		sum := ""
		if err == nil {
			sum, err = c.checkLine(o.lines[i], &r)
		}
		if err != nil {
			c.note(fmt.Errorf("op %d line %d: %w", o.idx, i, err))
			out.failed++
			sum = "ERR"
		}
		sums = append(sums, sum)
		i++
	}
	if missing := len(o.lines) - i; missing > 0 {
		c.note(fmt.Errorf("op %d: %d of %d answer lines missing", o.idx, missing, len(o.lines)))
		out.failed += missing
	}
	c.recordGolden(o.idx, strings.Join(sums, ","))
	return out
}

// checkLine validates one line or tree answer and returns its summary
// (feasibility and total width per budget).
func (c *checker) checkLine(l *lineReq, r *api.Response) (string, error) {
	if r.Err != nil {
		return "", fmt.Errorf("net %s: error envelope %s: %s", l.name, r.Err.Code, r.Err.Message)
	}
	if r.Net != l.name {
		return "", fmt.Errorf("answer for %q where %q was asked", r.Net, l.name)
	}
	if r.Tech != l.sh.tech {
		return "", fmt.Errorf("net %s: solved under %q, asked %q", l.name, r.Tech, l.sh.tech)
	}
	var sum string
	var err error
	if len(l.sweep) > 0 {
		sum, err = c.checkSweep(l, r)
	} else {
		if l.sh.tminNS > 0 && !near(r.TargetNS, l.mult*l.sh.tminNS) {
			return "", fmt.Errorf("net %s: target %g ns is not %g × τmin %g ns", l.name, r.TargetNS, l.mult, l.sh.tminNS)
		}
		if err := c.sameTmin(l, r.TargetNS); err != nil {
			return "", fmt.Errorf("net %s: %w", l.name, err)
		}
		sum = answerSummary(r.Feasible, r.TotalWidthU)
		if r.Feasible {
			err = c.checkPoint(l, r.TargetNS, r.DelayNS, r.SlackNS, r.TotalWidthU, r.PositionsUM, r.WidthsU, r.Buffers)
		}
	}
	if err != nil {
		return "", fmt.Errorf("net %s: %w", l.name, err)
	}
	if !r.CacheHit {
		c.noteCold(l)
	}
	if err := c.agree(l.key(), sum); err != nil {
		return "", fmt.Errorf("net %s: %w", l.name, err)
	}
	return sum, nil
}

func answerSummary(feasible bool, width float64) string {
	if !feasible {
		return "infeasible"
	}
	return fmt.Sprintf("%.6f", width)
}

func (c *checker) checkSweep(l *lineReq, r *api.Response) (string, error) {
	if len(r.Sweep) != len(l.sweep) {
		return "", fmt.Errorf("%d sweep answers for %d budgets", len(r.Sweep), len(l.sweep))
	}
	all := true
	var sums []string
	for i, p := range r.Sweep {
		if !near(p.TargetNS, l.sweep[i]) {
			return "", fmt.Errorf("sweep answer %d is for %g ns, asked %g ns", i, p.TargetNS, l.sweep[i])
		}
		all = all && p.Feasible
		sums = append(sums, answerSummary(p.Feasible, p.TotalWidthU))
		if !p.Feasible {
			continue
		}
		if err := c.checkPoint(l, p.TargetNS, p.DelayNS, p.SlackNS, p.TotalWidthU, p.PositionsUM, p.WidthsU, p.Buffers); err != nil {
			return "", fmt.Errorf("sweep budget %g ns: %w", p.TargetNS, err)
		}
	}
	if r.Feasible != all {
		return "", fmt.Errorf("top-level feasible %v, sweep says %v", r.Feasible, all)
	}
	return strings.Join(sums, "/"), nil
}

// checkPoint validates one feasible answer at targetNS: structure, widths
// in the library, and for classic answers the delay re-walked with the
// public evaluators, which must match the served delay and meet the
// budget.
func (c *checker) checkPoint(l *lineReq, targetNS, delayNS, slackNS, widthU float64, posUM, widths []float64, bufs []api.TreeBuffer) error {
	if !(targetNS > 0) {
		return fmt.Errorf("target %g ns is not positive", targetNS)
	}
	t := c.tech(l.sh.tech)
	if l.sh.tree != nil {
		return c.checkTree(l, t, targetNS, delayNS, slackNS, widthU, bufs)
	}
	a, err := c.checkPlacement(l.sh.net, posUM, widths, widthU, true)
	if err != nil {
		return err
	}
	if delayNS > targetNS*(1+relTol) {
		return fmt.Errorf("served delay %g ns exceeds budget %g ns", delayNS, targetNS)
	}
	if l.aggressor != "" {
		// Coupled answers do not carry their per-interval scheme vector,
		// so their delay cannot be re-walked from the wire form.
		return nil
	}
	ev, err := delay.NewEvaluator(l.sh.net, t)
	if err != nil {
		return err
	}
	if err := ev.Validate(a); err != nil {
		return err
	}
	d := ev.Total(a) / units.NanoSecond
	if !near(d, delayNS) {
		return fmt.Errorf("served delay %g ns, re-walked %g ns", delayNS, d)
	}
	if d > targetNS*(1+relTol) {
		return fmt.Errorf("re-walked delay %g ns exceeds budget %g ns", d, targetNS)
	}
	return nil
}

// checkPlacement checks a line placement's structure and returns it in
// SI units. The widths must sum to widthU, or with exact false (a bus
// track's width objective, which adds shield area) stay within it.
func (c *checker) checkPlacement(net *wire.Net, posUM, widths []float64, widthU float64, exact bool) (delay.Assignment, error) {
	if len(posUM) != len(widths) {
		return delay.Assignment{}, fmt.Errorf("%d positions, %d widths", len(posUM), len(widths))
	}
	a := delay.Assignment{Widths: widths}
	prev, total := 0.0, 0.0
	for i, p := range posUM {
		x := p * units.Micron
		if !(x > prev) || !(x < net.Line.Length()) {
			return a, fmt.Errorf("repeater %d at %g µm is out of order or off the line", i, p)
		}
		for _, z := range net.Line.Zones() {
			if x > z.Start+1e-9 && x < z.End-1e-9 {
				return a, fmt.Errorf("repeater %d at %g µm is inside a forbidden zone", i, p)
			}
		}
		if !c.lib.Contains(widths[i]) {
			return a, fmt.Errorf("repeater %d width %g u is not in the library", i, widths[i])
		}
		a.Positions = append(a.Positions, x)
		total += widths[i]
		prev = x
	}
	if exact && !near(total, widthU) {
		return a, fmt.Errorf("widths sum to %g u, total_width_u says %g", total, widthU)
	}
	if total > widthU*(1+relTol) {
		return a, fmt.Errorf("widths sum to %g u, above total_width_u %g", total, widthU)
	}
	return a, nil
}

func (c *checker) checkTree(l *lineReq, t *tech.Technology, targetNS, delayNS, slackNS, widthU float64, bufs []api.TreeBuffer) error {
	sites := map[int]bool{}
	for _, n := range l.sh.tree.Tree.BufferSites() {
		sites[n.ID] = true
	}
	placed := map[int]float64{}
	total := 0.0
	for _, b := range bufs {
		if !sites[b.NodeID] {
			return fmt.Errorf("buffer at node %d, not a buffer site", b.NodeID)
		}
		if !c.lib.Contains(b.WidthU) {
			return fmt.Errorf("buffer width %g u is not in the library", b.WidthU)
		}
		placed[b.NodeID] = b.WidthU
		total += b.WidthU
	}
	if !near(total, widthU) {
		return fmt.Errorf("buffer widths sum to %g u, total_width_u says %g", total, widthU)
	}
	work := l.sh.tree.Tree.CloneWithRAT(targetNS * units.NanoSecond)
	slack, err := work.Evaluate(placed, l.sh.tree.DriverWidth, t.Rs, t.Co, t.Cp)
	if err != nil {
		return err
	}
	s := slack / units.NanoSecond
	if math.Abs(s-slackNS) > relTol*targetNS {
		return fmt.Errorf("served slack %g ns, re-walked %g ns", slackNS, s)
	}
	if s < -relTol*targetNS {
		return fmt.Errorf("re-walked slack %g ns misses the budget", s)
	}
	if math.Abs(targetNS-s-delayNS) > relTol*targetNS {
		return fmt.Errorf("served arrival %g ns, re-walked %g ns", delayNS, targetNS-s)
	}
	return nil
}

// addReference re-walks a cached line front exported from an engine and
// keeps it as the reference for /v1/front answers on that shape. A point
// whose re-walked delay differs from its cached delay is an error.
func (c *checker) addReference(sh *shape, ent engine.CacheEntry) error {
	t := c.tech(sh.tech)
	ev, err := delay.NewEvaluator(sh.net, t)
	if err != nil {
		return err
	}
	rf := refFront{tminNS: ent.TMin / units.NanoSecond}
	for _, p := range ent.Line {
		a := delay.Assignment{Positions: p.Positions, Widths: p.Widths}
		if err := ev.Validate(a); err != nil {
			return fmt.Errorf("cached front point: %w", err)
		}
		d := ev.Total(a) / units.NanoSecond
		if !near(d, p.Delay/units.NanoSecond) {
			return fmt.Errorf("cached front point delay %g ns, re-walked %g ns", p.Delay/units.NanoSecond, d)
		}
		rf.points = append(rf.points, refPoint{delayNS: d, widthU: p.TotalWidth, repeaters: len(p.Widths)})
	}
	c.mu.Lock()
	c.fronts[sh.id] = rf
	c.mu.Unlock()
	return nil
}

func (c *checker) checkFront(l *lineReq, fr *api.FrontResponse) error {
	if fr.Err != nil {
		return fmt.Errorf("front %s: error envelope %s: %s", l.name, fr.Err.Code, fr.Err.Message)
	}
	if fr.Net != l.name {
		return fmt.Errorf("front for %q where %q was asked", fr.Net, l.name)
	}
	c.mu.Lock()
	ref, ok := c.fronts[l.sh.id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("front %s: no reference front for shape %d", l.name, l.sh.id)
	}
	if !near(fr.TMinNS, ref.tminNS) {
		return fmt.Errorf("front %s: τmin %g ns, reference %g ns", l.name, fr.TMinNS, ref.tminNS)
	}
	if len(fr.Points) != len(ref.points) {
		return fmt.Errorf("front %s: %d points, reference has %d", l.name, len(fr.Points), len(ref.points))
	}
	for i, p := range fr.Points {
		if i > 0 && !(p.DelayNS > fr.Points[i-1].DelayNS && p.TotalWidthU < fr.Points[i-1].TotalWidthU) {
			return fmt.Errorf("front %s: point %d does not trade delay for width", l.name, i)
		}
		rp := ref.points[i]
		if !near(p.DelayNS, rp.delayNS) || p.TotalWidthU != rp.widthU || p.Repeaters != rp.repeaters {
			return fmt.Errorf("front %s: point %d is (%g ns, %g u, %d), re-walked reference (%g ns, %g u, %d)",
				l.name, i, p.DelayNS, p.TotalWidthU, p.Repeaters, rp.delayNS, rp.widthU, rp.repeaters)
		}
	}
	return nil
}

var busSchemes = map[string]bool{"plain": true, "staggered": true, "shielded": true}

// checkBus validates a bus answer: per-track structure, per-track fields
// summing to the group totals, and coordinated no worse than independent.
func (c *checker) checkBus(b *busReq, br *api.BusResponse) (string, error) {
	if br.Err != nil {
		return "", fmt.Errorf("bus: error envelope %s: %s", br.Err.Code, br.Err.Message)
	}
	if len(br.Tracks) != len(b.tracks) {
		return "", fmt.Errorf("bus: %d tracks answered, %d asked", len(br.Tracks), len(b.tracks))
	}
	t := c.tech(b.tech)
	var width, base, saved float64
	infeas, baseInfeas := 0, 0
	for i, tr := range br.Tracks {
		net := b.tracks[i]
		if tr.Net != net.Name {
			return "", fmt.Errorf("bus track %d answers %q, asked %q", i, tr.Net, net.Name)
		}
		if !busSchemes[tr.Scheme] {
			return "", fmt.Errorf("bus track %d: unknown scheme %q", i, tr.Scheme)
		}
		if tr.MF < 0 || tr.MF > t.MillerMax*(1+relTol) {
			return "", fmt.Errorf("bus track %d: Miller factor %g outside [0, %g]", i, tr.MF, t.MillerMax)
		}
		if tr.BaselineFeasible {
			base += tr.BaselineWidthU
		} else {
			baseInfeas++
		}
		saved += tr.AreaSavedUM
		if !tr.Feasible {
			infeas++
			continue
		}
		width += tr.WidthU
		if _, err := c.checkPlacement(net, tr.PositionsUM, tr.WidthsU, tr.WidthU, false); err != nil {
			return "", fmt.Errorf("bus track %d: %w", i, err)
		}
		if tr.DelayNS > tr.TargetNS*(1+relTol) {
			return "", fmt.Errorf("bus track %d: delay %g ns exceeds budget %g ns", i, tr.DelayNS, tr.TargetNS)
		}
	}
	switch {
	case !near(width, br.GroupWidthU):
		return "", fmt.Errorf("bus: track widths sum to %g u, group says %g", width, br.GroupWidthU)
	case !near(base, br.GroupBaselineWidthU):
		return "", fmt.Errorf("bus: baseline widths sum to %g u, group says %g", base, br.GroupBaselineWidthU)
	case infeas != br.Infeasible || baseInfeas != br.BaselineInfeasible:
		return "", errors.New("bus: infeasible track counts disagree with the group")
	case !near(saved, br.GroupAreaSaved):
		return "", fmt.Errorf("bus: track savings sum to %g, group says %g", saved, br.GroupAreaSaved)
	case infeas > baseInfeas || (infeas == baseInfeas && width > base*(1+relTol)):
		return "", fmt.Errorf("bus: coordinated (%d infeasible, %g u) is worse than independent (%d, %g u)",
			infeas, width, baseInfeas, base)
	}
	sum := fmt.Sprintf("%d/%.6f", infeas, width)
	if err := c.agree(b.key(), sum); err != nil {
		return "", err
	}
	return sum, nil
}

// near reports whether a and b agree to relTol.
func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))+1e-15
}

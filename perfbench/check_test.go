package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/tech"
)

// answered builds a batch op of n requests on line shapes and the
// engine's real JSONL answer to it.
func answered(t *testing.T, n int, mult float64) (*op, [][]byte) {
	t.Helper()
	ids := 0
	g := newGen(7, &ids)
	o := &op{route: "batch"}
	for i := 0; i < n; i++ {
		sh := g.lineShape(defaultTech, g.line[defaultTech])
		o.lines = append(o.lines, &lineReq{sh: sh, name: sh.net.Name, mult: mult})
	}
	o.encode()
	m, err := engine.NewMulti(tech.DefaultRegistry(), defaultTech, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, raw := range bytes.Split(bytes.TrimSpace(o.body), []byte("\n")) {
		req, err := api.ParseRequest(raw)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(api.FromResult(m.Solve(req.Job())))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	return o, lines
}

// mutate decodes one answer line, applies f and re-encodes it.
func mutate(t *testing.T, line []byte, f func(*api.Response)) []byte {
	t.Helper()
	var r api.Response
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || len(r.WidthsU) == 0 {
		t.Fatalf("test answer %s is not a buffered feasible answer", line)
	}
	f(&r)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckerCatchesInjectedFaults(t *testing.T) {
	o, lines := answered(t, 3, 1.3)
	join := func(ls ...[]byte) []byte { return append(bytes.Join(ls, []byte("\n")), '\n') }
	if out := newChecker(0).check(o, 200, join(lines...)); out.failed != 0 {
		t.Fatalf("correct answers failed the check: %+v", out)
	}
	faults := map[string][]byte{
		"wrong width": join(lines[0], mutate(t, lines[1], func(r *api.Response) {
			r.WidthsU[0] += 3 // off the library grid
			r.TotalWidthU += 3
		}), lines[2]),
		"over-budget delay": join(lines[0], lines[1], mutate(t, lines[2], func(r *api.Response) {
			r.DelayNS = r.TargetNS * 1.05
		})),
		"dropped line": join(lines[0], lines[2]),
	}
	for name, body := range faults {
		c := newChecker(0)
		if out := c.check(o, 200, body); out.failed == 0 {
			t.Errorf("%s: not caught", name)
		} else {
			t.Logf("%s: caught: %v", name, c.errs)
		}
	}
}

func TestCheckerCatchesDisagreeingHit(t *testing.T) {
	o, lines := answered(t, 1, 1.3)
	// The same net answered at a looser budget: a valid placement, but
	// not the answer to the question asked first.
	_, loose := answered(t, 1, 2.0)
	c := newChecker(0)
	if out := c.check(o, 200, lines[0]); out.failed != 0 {
		t.Fatalf("correct answer failed: %v", c.errs)
	}
	if out := c.check(o, 200, loose[0]); out.failed == 0 {
		t.Error("an answer disagreeing with the earlier one was not caught")
	}
}

func TestCheckerCatchesIgnoredTargetMult(t *testing.T) {
	o, lines := answered(t, 1, 1.3)
	// The same fresh shape asked at 2.0 × τmin but answered at the
	// 1.3 × τmin budget: a valid, feasible placement at the wrong budget.
	looser, _ := answered(t, 1, 2.0)
	c := newChecker(0)
	if out := c.check(o, 200, lines[0]); out.failed != 0 {
		t.Fatalf("correct answer failed: %v", c.errs)
	}
	if out := c.check(looser, 200, lines[0]); out.failed == 0 {
		t.Error("an answer ignoring target_mult was not caught")
	} else {
		t.Logf("caught: %v", c.errs)
	}
}

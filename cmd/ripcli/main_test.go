package main

import (
	"encoding/json"
	"strings"
	"testing"

	rip "github.com/rip-eda/rip"
	"github.com/rip-eda/rip/internal/api"
)

const arrayHint = "(batch input is JSONL — one net per line, not a JSON array)"

// feed runs feedBatch over the given lines and returns the jobs it sent
// and the refusals it noted, by job index.
func feed(t *testing.T, def rip.Scenario, lines ...string) ([]rip.BatchJob, map[int]api.Response) {
	t.Helper()
	jobs := make(chan rip.BatchJob, len(lines))
	fails := map[int]api.Response{}
	err := feedBatch(strings.NewReader(strings.Join(lines, "\n")), 1.3, 0, def, api.KindLine, jobs,
		func(idx int, fail api.Response) { fails[idx] = fail })
	close(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var out []rip.BatchJob
	for j := range jobs {
		out = append(out, j)
	}
	return out, fails
}

func netJSON(t *testing.T) (string, string) {
	t.Helper()
	nets, err := rip.GenerateNets(rip.T180(), 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(nets[0])
	if err != nil {
		t.Fatal(err)
	}
	return string(b), nets[0].Name
}

// TestFeedBatchDefaultScenario: -aggressor/-scheme reach batch lines
// exactly as ripd's default scenario reaches /v1/batch — a line with no
// scenario takes both tokens, its own scheme or aggressor wins, "none"
// stays uncoupled, "mf" lines and trees are left alone.
func TestFeedBatchDefaultScenario(t *testing.T) {
	def, err := rip.ParseScenario("worst", "staggered", nil)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := netJSON(t)
	trees, err := rip.GenerateTreeNets(rip.T180(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := json.Marshal(trees[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ line, want string }{
		{`{"net":` + net + `}`, "worst/staggered"},
		{`{"net":` + net + `,"scheme":"plain"}`, "worst/plain"},
		{`{"net":` + net + `,"aggressor":"best"}`, "best/plain"},
		{`{"net":` + net + `,"aggressor":"none"}`, ""},
		{`{"net":` + net + `,"mf":1.5}`, "mf=1.5"},
		{net, "worst/staggered"},
		{`{"tree":` + string(tree) + `}`, ""},
	}
	var lines []string
	for _, c := range cases {
		lines = append(lines, c.line)
	}
	jobs, fails := feed(t, def, lines...)
	if len(fails) != 0 || len(jobs) != len(cases) {
		t.Fatalf("%d jobs, refusals %v", len(jobs), fails)
	}
	for i, c := range cases {
		agg, scheme, mf := jobs[i].Scenario.Tokens()
		got := ""
		switch {
		case mf != nil:
			b, _ := json.Marshal(*mf) // a float always marshals
			got = "mf=" + string(b)
		case agg != "":
			got = agg + "/" + scheme
		}
		if got != c.want {
			t.Errorf("line %d: scenario %q, want %q", i+1, got, c.want)
		}
	}
}

// TestFeedBatchRefusals: a refused line that decoded names its net (and
// its own tech), and only a line that starts with '[' is told that batch
// input is JSONL rather than a JSON array.
func TestFeedBatchRefusals(t *testing.T) {
	net, name := netJSON(t)
	_, fails := feed(t, rip.Scenario{},
		`[`+net+`]`,
		`{"net":`+net+`,"eps":0.02}`,
		`{"net":`+net+`,"tech":"90nm","aggressor":"loudest"}`,
	)
	if len(fails) != 3 {
		t.Fatalf("refusals: %v", fails)
	}
	for i, want := range []struct {
		net, tech string
		hint      bool
	}{{"", "", true}, {name, "", false}, {name, "90nm", false}} {
		f := fails[i]
		if f.Err == nil || f.Err.Code != api.CodeBadRequest || !strings.HasPrefix(f.Err.Message, "line ") {
			t.Fatalf("line %d: %+v", i+1, f.Err)
		}
		if f.Net != want.net || f.Err.Net != want.net || f.Err.Tech != want.tech {
			t.Errorf("line %d: net %q, envelope net %q tech %q; want %q, %q", i+1, f.Net, f.Err.Net, f.Err.Tech, want.net, want.tech)
		}
		if strings.Contains(f.Err.Message, arrayHint) != want.hint {
			t.Errorf("line %d: array hint %v in %q", i+1, !want.hint, f.Err.Message)
		}
	}
}

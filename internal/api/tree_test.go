package api

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/netgen"
	"github.com/rip-eda/rip/internal/tech"
	"github.com/rip-eda/rip/internal/tree"
	"github.com/rip-eda/rip/internal/units"
)

func testTreeNet(t *testing.T) *tree.Net {
	t.Helper()
	cfg, err := netgen.DefaultTreeConfig(tech.T180())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sinks = 4
	tn, err := netgen.GenerateTree(rand.New(rand.NewSource(8)), cfg, "apitree")
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// TestParseRequestTreeShapes: the {"tree": ...} wrapper decodes for any
// bare kind; bare objects follow the requested kind.
func TestParseRequestTreeShapes(t *testing.T) {
	tn := testTreeNet(t)
	bare, err := json.Marshal(tn)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := []byte(`{"tree": ` + string(bare) + `, "target_mult": 1.4}`)

	for _, kind := range []Kind{KindLine, KindTree} {
		r, err := ParseRequestKind(wrapped, kind)
		if err != nil {
			t.Fatalf("wrapped tree (bare=%v): %v", kind, err)
		}
		if r.Tree == nil || r.Tree.Name != "apitree" || r.TargetMult != 1.4 {
			t.Fatalf("wrapped tree parsed as %+v", r)
		}
	}
	r, err := ParseRequestKind(bare, KindTree)
	if err != nil {
		t.Fatalf("bare tree: %v", err)
	}
	if r.Tree == nil || r.Tree.Name != "apitree" {
		t.Fatalf("bare tree parsed as %+v", r)
	}
	if _, err := ParseRequest(bare); err == nil {
		t.Error("a bare tree object should not decode as a line net")
	}
	// A wrapper with both kinds decodes but fails validation.
	lineNet, _ := json.Marshal(testNet(t))
	both := []byte(`{"net": ` + string(lineNet) + `, "tree": ` + string(bare) + `, "target_mult": 1.2}`)
	rb, err := ParseRequest(both)
	if err != nil {
		t.Fatalf("both-kinds wrapper should decode: %v", err)
	}
	if err := rb.Validate(); err == nil || !strings.Contains(err.Error(), "not both") {
		t.Errorf("both-kinds wrapper should fail validation, got %v", err)
	}
}

// TestTreeRequestValidation pins the tree budget rules, including the
// embedded-deadline escape hatch.
func TestTreeRequestValidation(t *testing.T) {
	tn := testTreeNet(t)
	if err := (&Request{Tree: tn, TargetMult: 1.3}).Validate(); err != nil {
		t.Errorf("relative budget: %v", err)
	}
	if err := (&Request{Tree: tn}).Validate(); err != nil {
		t.Errorf("embedded deadlines should satisfy validation: %v", err)
	}
	bald := &tree.Net{Name: "bald", Tree: tn.Tree.CloneWithRAT(0), DriverWidth: tn.DriverWidth}
	if err := (&Request{Tree: bald}).Validate(); err == nil {
		t.Error("no budget and no deadlines should fail")
	}
	if err := (&Request{Tree: tn, TargetMult: 1.2, TargetNS: 1}).Validate(); err == nil {
		t.Error("both budgets should fail")
	}
}

// TestTreeApplyDefault: a transport default must not override embedded
// per-sink deadlines, but fills in for deadline-less trees.
func TestTreeApplyDefault(t *testing.T) {
	tn := testTreeNet(t)
	r := Request{Tree: tn}
	r.ApplyDefault(1.3, 0)
	if r.TargetMult != 0 {
		t.Errorf("default overrode embedded deadlines: %+v", r)
	}
	bald := &tree.Net{Name: "bald", Tree: tn.Tree.CloneWithRAT(0), DriverWidth: tn.DriverWidth}
	r = Request{Tree: bald}
	r.ApplyDefault(1.3, 0)
	if r.TargetMult != 1.3 {
		t.Errorf("default not applied to deadline-less tree: %+v", r)
	}
}

// TestTreeJobAndResponseRoundTrip drives a tree request through the
// engine and checks the response wire form: kind, slack, ordered buffer
// list, and ns units.
func TestTreeJobAndResponseRoundTrip(t *testing.T) {
	tn := testTreeNet(t)
	eng, err := engine.New(tech.T180(), engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Tree: tn, TargetMult: 1.3}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	res := eng.Solve(req.Job())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	resp := FromResult(res)
	if resp.Kind != "tree" || resp.Net != "apitree" {
		t.Fatalf("envelope: %+v", resp)
	}
	if !resp.Feasible {
		t.Fatalf("expected feasible: %+v", resp)
	}
	if resp.TargetNS <= 0 || resp.DelayNS <= 0 || resp.DelayNS > resp.TargetNS {
		t.Errorf("target/delay: %+v", resp)
	}
	if resp.SlackNS < 0 {
		t.Errorf("slack: %+v", resp)
	}
	if got := resp.TargetNS * units.NanoSecond; !(got > res.Target*0.999 && got < res.Target*1.001) {
		t.Errorf("target_ns %g inconsistent with %g s", resp.TargetNS, res.Target)
	}
	if len(resp.Buffers) != len(res.TreeRes.Solution.Buffers) {
		t.Fatalf("buffer count: %+v", resp)
	}
	for i := 1; i < len(resp.Buffers); i++ {
		if resp.Buffers[i-1].NodeID >= resp.Buffers[i].NodeID {
			t.Errorf("buffers not ordered by node ID: %+v", resp.Buffers)
		}
	}
	if len(resp.PositionsUM) != 0 || len(resp.WidthsU) != 0 {
		t.Errorf("tree response carries line placement fields: %+v", resp)
	}
	// The response line must round-trip as JSON.
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var back Response
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != "tree" || len(back.Buffers) != len(resp.Buffers) {
		t.Errorf("JSON round trip drifted: %+v", back)
	}
}

// TestFeedJSONLMixedKinds streams a line wrapper, a tree wrapper and a
// bare object through the shared feed and checks each lands as the right
// job kind.
func TestFeedJSONLMixedKinds(t *testing.T) {
	tn := testTreeNet(t)
	ln := testNet(t)
	treeRaw, _ := json.Marshal(tn)
	lineRaw, _ := json.Marshal(ln)
	input := `{"net": ` + string(lineRaw) + `, "target_mult": 1.2}
{"tree": ` + string(treeRaw) + `, "target_mult": 1.3}
` + string(treeRaw) + "\n"

	jobs := make(chan engine.Job, 8)
	var errs []string
	n, err := FeedJSONL(context.Background(), strings.NewReader(input),
		FeedOptions{DefaultMult: 1.1, Bare: KindTree}, jobs,
		func(idx int, fail Response) { errs = append(errs, fail.Err.Message) })
	close(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(errs) != 0 {
		t.Fatalf("fed %d jobs, errs %v", n, errs)
	}
	got := make([]engine.Job, 0, 3)
	for j := range jobs {
		got = append(got, j)
	}
	if got[0].Net == nil || got[0].TreeNet != nil || got[0].TargetMult != 1.2 {
		t.Errorf("job 0: %+v", got[0])
	}
	if got[1].TreeNet == nil || got[1].TargetMult != 1.3 {
		t.Errorf("job 1: %+v", got[1])
	}
	// Bare tree with embedded deadlines: the default must not apply.
	if got[2].TreeNet == nil || got[2].TargetMult != 0 {
		t.Errorf("job 2: %+v", got[2])
	}
}

// TestFeedJSONLForceDefault: with ForceDefault (ripcli's explicit
// -target), the default budget overrides embedded tree deadlines, but a
// wrapper's own budget still wins.
func TestFeedJSONLForceDefault(t *testing.T) {
	tn := testTreeNet(t)
	treeRaw, _ := json.Marshal(tn)
	input := string(treeRaw) + "\n" + // bare tree, embedded deadlines
		`{"tree": ` + string(treeRaw) + `, "target_ns": 0.9}` + "\n"

	jobs := make(chan engine.Job, 4)
	n, err := FeedJSONL(context.Background(), strings.NewReader(input),
		FeedOptions{DefaultMult: 1.3, Bare: KindTree, ForceDefault: true}, jobs,
		func(idx int, fail Response) { t.Errorf("line %d: %s", idx, fail.Err.Message) })
	close(jobs)
	if err != nil || n != 2 {
		t.Fatalf("fed %d jobs, err %v", n, err)
	}
	got := make([]engine.Job, 0, 2)
	for j := range jobs {
		got = append(got, j)
	}
	if got[0].TargetMult != 1.3 {
		t.Errorf("forced default not applied over embedded deadlines: %+v", got[0])
	}
	if got[1].TargetMult != 0 || got[1].Target < 0.89*units.NanoSecond || got[1].Target > 0.91*units.NanoSecond {
		t.Errorf("wrapper budget should beat the forced default: %+v", got[1])
	}
}

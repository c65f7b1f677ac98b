package api

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/tech"
)

// scenarioEngine is a fresh Multi over the built-in nodes; 180nm (the
// default) models coupling with MillerMax 2.
func scenarioEngine(t testing.TB) *engine.Multi {
	t.Helper()
	m, err := engine.NewMulti(tech.DefaultRegistry(), "180nm", engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// echoOf renders the crosstalk echo of a marshalled response: its
// "aggressor", "scheme" and "mf" members with their raw value bytes, in
// wire order, joined by commas ("" when none is present).
func echoOf(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, k := range []string{"aggressor", "scheme", "mf"} {
		if v, ok := m[k]; ok {
			parts = append(parts, `"`+k+`":`+string(v))
		}
	}
	return strings.Join(parts, ",")
}

// TestScenarioGolden pins the three places a crosstalk scenario leaves
// the process, for every scenario shape: the signature-key suffix (the
// cache and snapshot identity), the forwarded request bytes (FromJob,
// including the "none" and "plain" pins a peer's own defaults must not
// override) and the response echo (FromResult). A refactor of how the
// scenario travels must leave all three byte-identical.
func TestScenarioGolden(t *testing.T) {
	m := scenarioEngine(t)
	net := testNet(t)
	netJSON, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	mf := func(x float64) *float64 { return &x }
	plain := Request{Net: net, TargetMult: 1.3}
	base, ok := m.Signature(plain.Job())
	if !ok {
		t.Fatal("uncoupled job is unroutable")
	}
	for _, tc := range []struct {
		name     string
		agg, sch string
		mf       *float64
		key      string // appended to the uncoupled key
		fwd      string // FromJob bytes from "target_mult" on
		echo     string
	}{
		{name: "absent", fwd: `"target_mult":1.3,"eps":0,"aggressor":"none"`},
		{name: "none", agg: "none", fwd: `"target_mult":1.3,"eps":0,"aggressor":"none"`},
		{name: "worst", agg: "worst", key: "|aworst|splain",
			fwd:  `"target_mult":1.3,"eps":0,"aggressor":"worst","scheme":"plain"`,
			echo: `"aggressor":"worst","scheme":"plain"`},
		{name: "worst/staggered", agg: "worst", sch: "staggered", key: "|aworst|sstaggered",
			fwd:  `"target_mult":1.3,"eps":0,"aggressor":"worst","scheme":"staggered"`,
			echo: `"aggressor":"worst","scheme":"staggered"`},
		{name: "best/auto", agg: "best", sch: "auto", key: "|abest|sauto",
			fwd:  `"target_mult":1.3,"eps":0,"aggressor":"best","scheme":"auto"`,
			echo: `"aggressor":"best","scheme":"auto"`},
		{name: "quiet/shielded", agg: "quiet", sch: "shielded", key: "|aquiet|sshielded",
			fwd:  `"target_mult":1.3,"eps":0,"aggressor":"quiet","scheme":"shielded"`,
			echo: `"aggressor":"quiet","scheme":"shielded"`},
		{name: "mf 0", mf: mf(0), key: "|m0.000000e+00,",
			fwd:  `"target_mult":1.3,"eps":0,"mf":0`,
			echo: `"mf":0`},
		{name: "mf 1.5", mf: mf(1.5), key: "|m1.500000e+00,",
			fwd:  `"target_mult":1.3,"eps":0,"mf":1.5`,
			echo: `"mf":1.5`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := Request{Net: net, TargetMult: 1.3, Aggressor: tc.agg, Scheme: tc.sch, MF: tc.mf}
			if err := req.Validate(); err != nil {
				t.Fatal(err)
			}
			job := req.Job()
			key, ok := m.Signature(job)
			if !ok || key != base+tc.key {
				t.Fatalf("key suffix: got %q (ok=%v), want %q", strings.TrimPrefix(key, base), ok, tc.key)
			}
			fwd, err := json.Marshal(FromJob(job))
			if err != nil {
				t.Fatal(err)
			}
			want := `{"v":1,"net":` + string(netJSON) + `,` + tc.fwd + `}`
			if string(fwd) != want {
				t.Fatalf("forwarded bytes:\n got %s\nwant %s", fwd, want)
			}
			res := m.Solve(job)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			body, err := json.Marshal(FromResult(res))
			if err != nil {
				t.Fatal(err)
			}
			if got := echoOf(t, body); got != tc.echo {
				t.Fatalf("echo: got %s, want %s", got, tc.echo)
			}
		})
	}
}

// FuzzParseScenario drives arbitrary aggressor/scheme/mf triples through
// a line request. Each either validates — and then the job it yields
// forwards as tokens that parse back to the same scenario: the same
// signature and the same forwarded bytes — or is refused with the
// bad_request envelope code. Nothing panics.
func FuzzParseScenario(f *testing.F) {
	for _, s := range []struct {
		agg, sch string
		hasMF    bool
		mf       float64
	}{
		{"", "", false, 0}, {"none", "", false, 0}, {"worst", "", false, 0},
		{"worst", "staggered", false, 0}, {"best", "auto", false, 0}, {"quiet", "shielded", false, 0},
		{"", "", true, 0}, {"", "", true, 1.5}, {"", "", true, math.Copysign(0, -1)}, {"", "", true, 1e300},
		{"loudest", "", false, 0}, {"worst", "twisted", false, 0}, {"", "auto", false, 0},
		{"none", "plain", false, 0}, {"worst", "", true, 1}, {"", "plain", true, 1},
		{"", "", true, -1}, {"", "", true, math.NaN()}, {"", "", true, math.Inf(1)}, {"WORST", "", false, 0},
	} {
		f.Add(s.agg, s.sch, s.hasMF, s.mf)
	}
	m := scenarioEngine(f)
	f.Fuzz(func(t *testing.T, agg, sch string, hasMF bool, mf float64) {
		req := Request{Net: testNet(t), TargetMult: 1.3, Aggressor: agg, Scheme: sch}
		if hasMF {
			req.MF = &mf
		}
		if err := req.Validate(); err != nil {
			if ErrorCode(err) != CodeBadRequest {
				t.Fatalf("(%q, %q, %v %g): code %q for %v", agg, sch, hasMF, mf, ErrorCode(err), err)
			}
			return
		}
		job := req.Job()
		fwd, err := json.Marshal(FromJob(job))
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseRequest(fwd)
		if err != nil {
			t.Fatalf("forwarded request does not parse: %v\n%s", err, fwd)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("forwarded request does not validate: %v\n%s", err, fwd)
		}
		again, err := json.Marshal(FromJob(back.Job()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fwd, again) {
			t.Fatalf("forwarding is not a fixed point:\n%s\n%s", fwd, again)
		}
		k1, ok1 := m.Signature(job)
		k2, ok2 := m.Signature(back.Job())
		if !ok1 || !ok2 || k1 != k2 {
			t.Fatalf("forwarded job keys differently: %q vs %q", k1, k2)
		}
	})
}

// TestJobNeverSolvesUnparsedScenario: a request whose crosstalk tokens
// do not parse converts to a job without a net — refused by the engine,
// routed by no forwarder — never to a job under some other scenario.
func TestJobNeverSolvesUnparsedScenario(t *testing.T) {
	m := scenarioEngine(t)
	for _, req := range []Request{
		{Net: testNet(t), TargetMult: 1.3, Aggressor: "loudest"},
		{Net: testNet(t), TargetMult: 1.3, Scheme: "auto"},
	} {
		job := req.Job()
		if job.Net != nil || job.TreeNet != nil {
			t.Fatalf("%+v: job keeps its net", req)
		}
		if _, ok := m.Signature(job); ok {
			t.Fatalf("%+v: job is routable", req)
		}
		if res := m.Solve(job); res.Err == nil {
			t.Fatalf("%+v: job solved", req)
		}
	}
}

// TestForwardTreeScenario: a tree job's scenario crosses the forwarding
// hop, so the owner refuses it as the local engine would, instead of
// solving the tree uncoupled.
func TestForwardTreeScenario(t *testing.T) {
	req := Request{Tree: testTreeNet(t), TargetMult: 1.3, Aggressor: "worst"}
	fwd := FromJob(req.Job())
	if fwd.Aggressor != "worst" || fwd.Scheme != "plain" || fwd.Eps != nil {
		t.Fatalf("forwarded tree request %+v", fwd)
	}
	res := scenarioEngine(t).Solve(fwd.Job())
	if res.Err == nil || ErrorCode(res.Err) != CodeBadRequest {
		t.Fatalf("coupled tree job: %v", res.Err)
	}
}

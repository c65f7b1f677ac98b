package server

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/wire"
)

// wrapper renders a line request over n with extra JSON members
// appended (each with its leading comma).
func wrapper(t *testing.T, n *wire.Net, extra string) string {
	t.Helper()
	return `{"net":` + string(mustMarshal(t, n)) + extra + `}`
}

// viaOptimize, viaJSONL and viaArray post one request body through
// /v1/optimize and the two /v1/batch forms and return its response.
func viaOptimize(t *testing.T, s *Server, body string) api.Response {
	t.Helper()
	return decodeResponse(t, post(t, s, "/v1/optimize", []byte(body)))
}

func viaJSONL(t *testing.T, s *Server, body string) api.Response {
	t.Helper()
	rr := post(t, s, "/v1/batch", []byte(body+"\n"))
	lines := nonEmptyLines(rr.Body.String())
	if rr.Code != 200 || len(lines) != 1 {
		t.Fatalf("JSONL batch: status %d, %d lines: %s", rr.Code, len(lines), rr.Body.String())
	}
	var resp api.Response
	if err := json.Unmarshal([]byte(lines[0]), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func viaArray(t *testing.T, s *Server, body string) api.Response {
	t.Helper()
	rr := post(t, s, "/v1/batch", []byte("["+body+"]"))
	var out []api.Response
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil || rr.Code != 200 || len(out) != 1 {
		t.Fatalf("array batch: status %d, err %v: %s", rr.Code, err, rr.Body.String())
	}
	return out[0]
}

func viaFront(t *testing.T, s *Server, body string) api.FrontResponse {
	t.Helper()
	rr := post(t, s, "/v1/front", []byte(body))
	var fr api.FrontResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &fr); err != nil {
		t.Fatalf("front: %v: %s", err, rr.Body.String())
	}
	return fr
}

// echo renders a response's crosstalk attribution as aggressor/scheme,
// "mf=<factor>" or "" for an uncoupled answer.
func echo(agg, scheme string, mf *float64) string {
	switch {
	case mf != nil:
		return "mf=" + string(mustJSON(*mf))
	case agg != "":
		return agg + "/" + scheme
	}
	return ""
}

func mustJSON(v any) []byte {
	b, _ := json.Marshal(v) // floats and strings always marshal
	return b
}

// TestScenarioRefusedAlikeOnEveryEndpoint: a malformed crosstalk scenario
// is refused by /v1/optimize, /v1/front and both /v1/batch forms with the
// same code and message, naming the net. Token errors are found before
// solving, so the batch forms prefix the line's position; a factor the
// node cannot price is the engine's refusal and reads the same
// everywhere.
func TestScenarioRefusedAlikeOnEveryEndpoint(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{})
	n := corpus(t, 5, 1)[0]
	for _, tc := range []struct {
		name  string
		extra string
		parse bool // refused before solving
	}{
		{"unknown aggressor", `,"aggressor":"loudest"`, true},
		{"unknown scheme", `,"aggressor":"worst","scheme":"twisted"`, true},
		{"scheme without aggressor", `,"scheme":"auto"`, true},
		{"scheme with explicit none", `,"aggressor":"none","scheme":"plain"`, true},
		{"mf with aggressor", `,"aggressor":"worst","mf":1`, true},
		{"negative mf", `,"mf":-1`, true},
		{"mf above MillerMax", `,"mf":9`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := wrapper(t, n, `,"target_mult":1.3`+tc.extra)
			opt := viaOptimize(t, s, body)
			if opt.Err == nil || opt.Err.Code != api.CodeBadRequest || !strings.Contains(opt.Err.Message, `"`+n.Name+`"`) {
				t.Fatalf("optimize: %+v", opt.Err)
			}
			msg := opt.Err.Message
			if fr := viaFront(t, s, body); fr.Err == nil || fr.Err.Code != opt.Err.Code || fr.Err.Message != msg || fr.Net != n.Name {
				t.Fatalf("front: %+v (net %q), want message %q", fr.Err, fr.Net, msg)
			}
			for pos, resp := range map[string]api.Response{"line 1": viaJSONL(t, s, body), "element 0": viaArray(t, s, body)} {
				want := msg
				if tc.parse {
					want = pos + ": " + msg
				}
				if resp.Err == nil || resp.Err.Code != opt.Err.Code || resp.Err.Message != want || resp.Net != n.Name {
					t.Fatalf("batch %s: %+v (net %q), want message %q", pos, resp.Err, resp.Net, want)
				}
			}
		})
	}
}

// TestBatchParseRefusalNamesNet: a batch line refused before solving
// names its net, and its own tech when it gave one, in the response and
// the envelope; a line that never decoded names neither.
func TestBatchParseRefusalNamesNet(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{})
	n := corpus(t, 5, 1)[0]
	lines := []string{
		wrapper(t, n, `,"tech":"t180","target_mult":1.3,"aggressor":"loudest"`),
		wrapper(t, n, `,"target_mult":1.3,"eps":0.02`),
		`{"net": 17}`,
	}
	want := [][2]string{{n.Name, "t180"}, {n.Name, ""}, {"", ""}}
	check := func(form string, out []api.Response) {
		t.Helper()
		if len(out) != len(want) {
			t.Fatalf("%s: %d responses", form, len(out))
		}
		for i, r := range out {
			if r.Err == nil || r.Err.Code != api.CodeBadRequest {
				t.Fatalf("%s line %d: not refused: %+v", form, i, r)
			}
			if r.Net != want[i][0] || r.Err.Net != want[i][0] || r.Err.Tech != want[i][1] {
				t.Errorf("%s line %d: net %q, envelope net %q tech %q; want %q, %q",
					form, i, r.Net, r.Err.Net, r.Err.Tech, want[i][0], want[i][1])
			}
		}
	}
	rr := post(t, s, "/v1/batch", []byte(strings.Join(lines, "\n")+"\n"))
	var jsonl []api.Response
	for _, l := range nonEmptyLines(rr.Body.String()) {
		var r api.Response
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatal(err)
		}
		jsonl = append(jsonl, r)
	}
	check("JSONL", jsonl)
	rr = post(t, s, "/v1/batch", []byte("["+strings.Join(lines, ",")+"]"))
	var arr []api.Response
	if err := json.Unmarshal(rr.Body.Bytes(), &arr); err != nil {
		t.Fatal(err)
	}
	check("array", arr)
}

// TestDefaultScenario turns the transport default on (worst/staggered)
// and checks who inherits it: a line request with no scenario takes both
// tokens, a request's own scheme or aggressor wins, an explicit "none"
// stays uncoupled, "mf" requests and trees are left alone — identically
// on /v1/optimize and both /v1/batch forms — and /v1/front is never
// defaulted.
func TestDefaultScenario(t *testing.T) {
	def, err := delay.ParseScenario("worst", "staggered", nil)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, 1, Options{DefaultTargetMult: 1.3, DefaultScenario: def})
	n := corpus(t, 5, 1)[0]
	tn := treeNets(t, 3, 1)[0]
	for _, tc := range []struct {
		name, body, want string
	}{
		{"no scenario", wrapper(t, n, ""), "worst/staggered"},
		{"own scheme", wrapper(t, n, `,"scheme":"plain"`), "worst/plain"},
		{"own aggressor", wrapper(t, n, `,"aggressor":"best"`), "best/plain"},
		{"explicit none", wrapper(t, n, `,"aggressor":"none"`), ""},
		{"mf", wrapper(t, n, `,"mf":1.5`), "mf=1.5"},
		{"bare net", string(mustMarshal(t, n)), "worst/staggered"},
		{"tree", `{"tree":` + string(mustMarshal(t, tn)) + `}`, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for form, resp := range map[string]api.Response{
				"optimize": viaOptimize(t, s, tc.body),
				"JSONL":    viaJSONL(t, s, tc.body),
				"array":    viaArray(t, s, tc.body),
			} {
				if resp.Err != nil {
					t.Fatalf("%s: %+v", form, resp.Err)
				}
				if got := echo(resp.Aggressor, resp.Scheme, resp.MF); got != tc.want {
					t.Errorf("%s: solved under %q, want %q", form, got, tc.want)
				}
			}
		})
	}
	fr := viaFront(t, s, wrapper(t, n, ""))
	if fr.Err != nil || fr.Aggressor != "" || fr.Scheme != "" || fr.MF != nil {
		t.Fatalf("front inherited the default: %+v", fr)
	}
}

// TestFrontEchoesMF: /v1/front attributes an explicit-factor curve with
// its "mf" exactly as /v1/optimize does, so fronts for different factors
// are told apart.
func TestFrontEchoesMF(t *testing.T) {
	s, _ := newTestServer(t, 1, Options{})
	n := corpus(t, 5, 1)[0]
	for _, mf := range []string{"0", "1.5"} {
		body := wrapper(t, n, `,"target_mult":1.3,"mf":`+mf)
		fr := viaFront(t, s, body)
		opt := viaOptimize(t, s, body)
		if fr.Err != nil || opt.Err != nil {
			t.Fatalf("mf %s: front %+v, optimize %+v", mf, fr.Err, opt.Err)
		}
		got, want := echo(fr.Aggressor, fr.Scheme, fr.MF), echo(opt.Aggressor, opt.Scheme, opt.MF)
		if got != "mf="+mf || got != want {
			t.Fatalf("mf %s: front echoes %q, optimize %q", mf, got, want)
		}
	}
}

package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"time"
)

// client sends ops to a server over HTTP and checks every answer.
type client struct {
	hc  *http.Client
	chk *checker
	tr  *Tracer
}

// reply is the client's record of one request. A request that failed
// below HTTP has status 0 and every operation failed.
type reply struct {
	out    outcome
	status int
}

// answer is one request's raw HTTP answer, read but not yet checked.
type answer struct {
	status int
	body   []byte
	err    error
	done   time.Time // when the answer had been read
}

var routes = map[string]string{
	"batch": "/v1/batch", "optimize": "/v1/optimize", "front": "/v1/front", "bus": "/v1/bus",
}

// send posts o to the server at url and reads the answer. Traced, it
// records client.op from due to the answer read, with children
// client.queue (due→sent) and client.roundtrip (sent→answer read; the
// server's server.http span hangs under it).
func (c *client) send(url string, o *op, due, sent time.Time) answer {
	req := int64(o.idx) + 1
	root := c.tr.NewID()
	if c.tr != nil {
		c.tr.Add(Span{ID: c.tr.NewID(), Parent: root, Req: req, Name: "client.queue", Start: due, End: sent})
	}
	rt := c.tr.Start("client.roundtrip", root, req)
	var a answer
	a.status, a.body, a.err = c.post(url+routes[o.route], o.body, req, rt.ID())
	a.done = time.Now()
	rt.End()
	if c.tr != nil {
		c.tr.Add(Span{ID: root, Req: req, Name: "client.op", Start: due, End: a.done})
	}
	return a
}

// check validates an answer send returned. It is the benchmark's own
// work, so callers run it outside the timed part of a request; traced,
// it records a client.check span of its own.
func (c *client) check(o *op, a answer) reply {
	ck := c.tr.Start("client.check", 0, int64(o.idx)+1)
	defer ck.End()
	if a.err != nil {
		c.chk.note(a.err)
		c.chk.recordGolden(o.idx, "ERR")
		return reply{out: outcome{failed: o.size()}}
	}
	return reply{out: c.chk.check(o, a.status, a.body), status: a.status}
}

func (c *client) post(url string, body []byte, req, parent int64) (int, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if c.tr != nil {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrParent, strconv.FormatInt(parent, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

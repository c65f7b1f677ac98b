package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/server"
	"github.com/rip-eda/rip/internal/snapshot"
	"github.com/rip-eda/rip/internal/tech"
)

// Request headers the benchmark's client stamps so the server-side
// wrapper can attach its span to the client's request.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// defaultTech is ripd's default node: the first of its default -techs.
const defaultTech = "180nm"

// instance is one in-process ripd: the wiring cmd/ripd uses
// (engine.NewMulti over every built-in node, server.New with default
// options) on a loopback listener.
type instance struct {
	m    *engine.Multi
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}

	setup    time.Duration // NewMulti (+ LoadMulti) + server.New + listen
	inflight atomic.Int64
	maxInfl  atomic.Int64
}

// startInstance builds and starts one server, restoring snapPath when it
// is not empty. With a tracer, the handler is wrapped so every request
// records a server.http span. The set-up time runs until the listener is
// bound, when connections are already accepted; the /readyz probe that
// follows is the benchmark's own check and is not timed.
func startInstance(snapPath string, tr *Tracer, workers int) (*instance, error) {
	begin := time.Now()
	m, err := engine.NewMulti(tech.DefaultRegistry(), defaultTech, engine.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	in := &instance{m: m, done: make(chan struct{})}
	if snapPath != "" {
		if _, err := snapshot.LoadMulti(snapPath, m); err != nil {
			return nil, fmt.Errorf("restoring snapshot: %w", err)
		}
	}
	in.srv = server.New(m, server.Options{})
	var h http.Handler = in.srv
	if tr != nil {
		h = in.traced(tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.setup = time.Since(begin)
	in.url = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(in.done)
		in.hs.Serve(ln) //nolint:errcheck // ends with ErrServerClosed on close
	}()
	if err := waitReady(in.url); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(url string) error {
	c := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server did not become ready")
}

// close stops the listener, waits for in-flight handlers and for the
// serve goroutine to exit.
func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in.hs.Shutdown(ctx) //nolint:errcheck // best effort; Serve's exit is awaited below
	<-in.done
}

// traced wraps the server so each request records a server.http span
// around Server.ServeHTTP, parented to the client span named in the
// request headers, and tracks the in-flight high-water mark.
func (in *instance) traced(tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		n := in.inflight.Add(1)
		for {
			cur := in.maxInfl.Load()
			if n <= cur || in.maxInfl.CompareAndSwap(cur, n) {
				break
			}
		}
		s := Span{ID: tr.NewID(), Parent: parent, Req: req, Name: "server.http", Start: time.Now()}
		in.srv.ServeHTTP(w, r)
		s.End = time.Now()
		in.inflight.Add(-1)
		if req != 0 {
			tr.Add(s)
		}
	})
}

// newClient returns an HTTP client using at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// measureSetup starts reps instances and returns the per-start set-up
// times in seconds and the last instance, left running. Before each
// start, garbage is collected and the freed memory returned to the
// operating system, so every start faults in the memory it sets up, as a
// fresh ripd process does. (After a plain collection, whether a start
// finds pages still mapped depends on the runtime's background
// scavenger, which made the set-up time bimodal.)
func measureSetup(reps int, start func() (*instance, error)) (setups []float64, last *instance, err error) {
	for i := 0; i < reps; i++ {
		if last != nil {
			last.close()
			last = nil
		}
		debug.FreeOSMemory()
		in, err := start()
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, in.setup.Seconds())
		last = in
	}
	return setups, last, nil
}

// scratchDir makes a per-process directory for benchmark files under the
// checkout's build directory.
func scratchDir() (string, error) {
	dir := fmt.Sprintf(".bench_build/run-%d", os.Getpid())
	return dir, os.MkdirAll(dir, 0o755)
}

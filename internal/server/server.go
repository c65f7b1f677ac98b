// Package server is the network layer over the batch engine: a JSON HTTP
// API (cmd/ripd) that turns the engine's solution cache into a
// cross-request asset. One shared multi-technology engine serves every
// request, so a net solved for one client is a warm cache hit for the
// next — per node: each technology keeps its own cache, and requests
// select a node with an optional "tech" field (empty = the server's
// default). Unknown names are a 400 on /v1/optimize, and a per-line
// error inside batches; both list the served nodes.
//
// Endpoints:
//
//	POST /v1/optimize   one api.Request in, one api.Response out
//	                    (targets_ns sweeps many budgets in one request)
//	POST /v1/batch      JSON array or JSONL stream of api.Request in,
//	                    results in input order, per-net error isolation
//	POST /v1/front      one api.Request in (no budget required), the
//	                    net's whole power–delay Pareto front out
//	POST /v1/bus        one api.BusRequest in (a group of parallel
//	                    tracks in adjacency order), the co-decided
//	                    per-track schemes and group savings out
//	GET  /livez         process liveness: 200 as long as the process
//	                    serves HTTP at all
//	GET  /readyz        traffic readiness: 503 while draining or while
//	                    a cache snapshot is still loading; reports ring
//	                    peers and snapshot age
//	GET  /healthz       readiness alias (kept for existing probes)
//	GET  /metrics       Prometheus text: requests, rejections, in-flight,
//	                    latency histograms, engine cache + front counters,
//	                    cluster forwarding and snapshot gauges
//
// Every failing response carries the structured error envelope (see
// api.ErrorInfo): a stable machine-readable "code" plus a message, with
// the HTTP status derived from the code. 429 and 503 responses carry a
// Retry-After header.
//
// Operational behavior:
//
//   - Admission control: at most Options.MaxInFlight optimize/batch
//     requests run at once; beyond that the server answers 429 with a
//     Retry-After header rather than queuing unboundedly.
//   - Timeouts: Options.RequestTimeout bounds each request via context
//     cancellation threaded through engine.SolveContext, so an expired
//     request stops at the next solver phase boundary instead of
//     occupying a worker indefinitely.
//   - Graceful shutdown: BeginShutdown flips the server into draining
//     mode — new work is refused with 503 (and /readyz fails, so load
//     balancers stop routing here) while requests already admitted run
//     to completion under http.Server.Shutdown.
//   - Clustering: when the engine carries a cluster forwarder, requests
//     whose shapes other replicas own are forwarded there; a request
//     arriving with the cluster.ForwardHeader is answered locally
//     unconditionally, so rings that disagree cannot loop.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rip-eda/rip/internal/api"
	"github.com/rip-eda/rip/internal/cluster"
	"github.com/rip-eda/rip/internal/delay"
	"github.com/rip-eda/rip/internal/engine"
)

// Options configures the service layer. The zero value is usable.
type Options struct {
	// MaxInFlight bounds concurrently served optimize/batch requests
	// (default 4× the engine's worker count). Excess requests get 429.
	MaxInFlight int
	// RequestTimeout bounds each request's solving time via context
	// cancellation (default 0: no timeout beyond the client's).
	RequestTimeout time.Duration
	// DefaultTargetMult is applied to requests that carry no budget of
	// their own (default 0: such requests fail per-net).
	DefaultTargetMult float64
	// DefaultScenario is the crosstalk scenario applied to line requests
	// that carry neither "aggressor" nor "mf" (see
	// api.Request.ApplyDefaultScenario; the zero value is the classic
	// ground-only model). An explicit "aggressor": "none" always forces
	// the uncoupled model. /v1/front is not defaulted — curve queries stay
	// uncoupled unless the request opts in.
	DefaultScenario delay.Scenario
	// MaxBatchNets caps the nets accepted in one array-bodied batch
	// (default 100000). JSONL bodies stream and are not subject to it.
	MaxBatchNets int
	// MaxBodyBytes caps a request body (default 256 MiB).
	MaxBodyBytes int64
	// Cluster is this replica's ring node, for /readyz peer reporting
	// and /metrics forwarding counters (nil = single-replica). The
	// forwarding hook itself lives on the engine (Multi.SetForwarder).
	Cluster *cluster.Node
	// LastSnapshot reports the time of the last successful cache
	// snapshot (zero time = none); /readyz and /metrics report its age.
	// Nil when snapshotting is off.
	LastSnapshot func() time.Time
}

const (
	defaultMaxBatchNets = 100000
	defaultMaxBodyBytes = 256 << 20
)

// Server is the HTTP service over one shared multi-technology engine.
// It implements http.Handler; the caller owns the engine and the
// http.Server around it (see cmd/ripd for the canonical wiring).
type Server struct {
	eng   *engine.Multi
	opts  Options
	mux   *http.ServeMux
	slots chan struct{}
	start time.Time

	draining atomic.Bool
	ready    atomic.Bool
	m        metrics

	// testHookAdmitted, when non-nil, runs after a request is admitted
	// and before solving begins; concurrency tests use it to hold
	// admission slots open deterministically.
	testHookAdmitted func(route string)
}

// New builds the service over an existing multi-technology engine. The
// engine is shared, not owned: the caller may keep using it directly,
// and the /metrics cache counters reflect that traffic too.
func New(eng *engine.Multi, opts Options) *Server {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 4 * eng.Workers()
	}
	if opts.MaxBatchNets <= 0 {
		opts.MaxBatchNets = defaultMaxBatchNets
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBodyBytes
	}
	s := &Server{
		eng:   eng,
		opts:  opts,
		mux:   http.NewServeMux(),
		slots: make(chan struct{}, opts.MaxInFlight),
		start: time.Now(),
	}
	s.ready.Store(true)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/front", s.handleFront)
	s.mux.HandleFunc("POST /v1/bus", s.handleBus)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	// /healthz predates the livez/readyz split; existing probes expect
	// readiness semantics (it failed while draining), so it aliases
	// /readyz.
	s.mux.HandleFunc("GET /healthz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// SetReady flips traffic readiness: ripd holds it false while a cache
// snapshot is still loading so load balancers route cold traffic to
// warm replicas first. Requests arriving while not ready are still
// served (they just miss the restoring cache); only /readyz changes.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// BeginShutdown puts the server into draining mode: /healthz starts
// failing and new optimize/batch requests are refused with 503, while
// already-admitted requests run to completion. Pair it with
// http.Server.Shutdown, which waits for those in-flight handlers.
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// InFlight reports the number of requests currently being served.
func (s *Server) InFlight() int64 { return s.m.inflight.Load() }

// MaxInFlight reports the resolved admission bound (after defaulting),
// so operators log the number the server actually enforces.
func (s *Server) MaxInFlight() int { return s.opts.MaxInFlight }

// admit implements admission control: draining refuses with 503,
// saturation with 429 (both coded, both with Retry-After), otherwise a
// slot is taken and the returned release must be deferred.
func (s *Server) admit(w http.ResponseWriter, route string) (release func(), ok bool) {
	rm := s.m.route(route)
	if s.draining.Load() {
		rm.draining.Add(1)
		respond(w, http.StatusServiceUnavailable,
			api.CodedErrorResponse(api.CodeDraining, "", "", "server is shutting down"))
		return nil, false
	}
	select {
	case s.slots <- struct{}{}:
	default:
		rm.saturated.Add(1)
		respond(w, http.StatusTooManyRequests,
			api.CodedErrorResponse(api.CodeOverloaded, "", "",
				fmt.Sprintf("server saturated: %d requests in flight", s.opts.MaxInFlight)))
		return nil, false
	}
	rm.requests.Add(1)
	s.m.inflight.Add(1)
	begin := time.Now()
	if s.testHookAdmitted != nil {
		s.testHookAdmitted(route)
	}
	return func() {
		rm.latency.observe(time.Since(begin))
		s.m.inflight.Add(-1)
		<-s.slots
	}, true
}

// requestCtx derives the solving context: the client's context, bounded
// by the per-request timeout when one is configured, and marked
// local-only when the request already took its one forwarding hop.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if r.Header.Get(cluster.ForwardHeader) != "" {
		ctx = cluster.WithLocalOnly(ctx)
	}
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.opts.RequestTimeout)
	}
	return context.WithCancel(ctx)
}

// statusFor maps an envelope code to its HTTP status — the single
// source of truth for every /v1/* error path.
func statusFor(code string) int {
	switch code {
	case api.CodeBadRequest, api.CodeUnknownTech, api.CodeUnsupportedVersion:
		return http.StatusBadRequest
	case api.CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case api.CodeOverloaded:
		return http.StatusTooManyRequests
	case api.CodeDraining, api.CodeCanceled, api.CodePeerUnavailable:
		return http.StatusServiceUnavailable
	case api.CodeTimeout:
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

// respond writes the JSON payload, stamping Retry-After on the
// statuses a client should back off from and retry (shed load, drain,
// unreachable owner).
func respond(w http.ResponseWriter, status int, v any) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, v)
}

// fail writes one coded error, shaped for the endpoint (front=true
// emits a FrontResponse envelope).
func (s *Server) fail(w http.ResponseWriter, front bool, code, net, tech, msg string) {
	if front {
		respond(w, statusFor(code), api.CodedFrontErrorResponse(code, net, tech, msg))
		return
	}
	respond(w, statusFor(code), api.CodedErrorResponse(code, net, tech, msg))
}

// decodeSingle is the one decode-validate path behind /v1/optimize and
// /v1/front (their three formerly separate decode blocks): read the
// body (one request line of the shared wire format — a wrapper or a
// bare net, exactly like a JSONL batch line), parse it, resolve the
// technology, apply the default budget (optimize only; fronts need no
// budget) and validate. On failure the coded error envelope has been
// written and ok is false.
func (s *Server) decodeSingle(w http.ResponseWriter, r *http.Request, front bool) (api.Request, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		s.fail(w, front, bodyErrCode(err), "", "", "reading request: "+err.Error())
		return api.Request{}, false
	}
	req, err := api.ParseRequest(raw)
	if err != nil {
		s.fail(w, front, api.CodeBadRequest, req.Name(), req.Tech, err.Error())
		return api.Request{}, false
	}
	// An unknown technology is a client error, answered before solving —
	// the engine's resolve error lists every served node.
	if _, err := s.eng.Resolve(req.Tech); err != nil {
		s.m.netErrors.Add(1)
		s.fail(w, front, api.CodeUnknownTech, req.Name(), req.Tech, err.Error())
		return api.Request{}, false
	}
	validate := req.ValidateFront
	if !front {
		req.ApplyDefault(s.opts.DefaultTargetMult, 0)
		req.ApplyDefaultScenario(s.opts.DefaultScenario)
		validate = req.Validate
	}
	if err := validate(); err != nil {
		s.m.netErrors.Add(1)
		s.fail(w, front, api.ErrorCode(err), req.Name(), req.Tech, err.Error())
		return api.Request{}, false
	}
	return req, true
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, "optimize")
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	req, ok := s.decodeSingle(w, r, false)
	if !ok {
		return
	}
	res := s.eng.SolveContext(ctx, req.Job())
	s.m.nets.Add(1)
	status := http.StatusOK
	if res.Err != nil {
		s.m.netErrors.Add(1)
		status = statusFor(api.ErrorCode(res.Err))
	}
	respond(w, status, api.FromResult(res))
}

// handleFront serves one net's whole power–delay Pareto front: the same
// request body as /v1/optimize, but no budget is required — the response
// is the full trade-off curve the engine retains per net shape, so a
// client sweeps budgets (or reads off MinDelay) without any further
// solves. The curve is cached under the same shape-keyed entries the
// optimize path uses: a front queried here warms the cache for later
// optimize calls and vice versa.
func (s *Server) handleFront(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, "front")
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	req, ok := s.decodeSingle(w, r, true)
	if !ok {
		return
	}
	fr := s.eng.FrontContext(ctx, req.Job())
	s.m.nets.Add(1)
	status := http.StatusOK
	if fr.Err != nil {
		s.m.netErrors.Add(1)
		status = statusFor(api.ErrorCode(fr.Err))
	}
	respond(w, status, api.FromFrontResult(fr))
}

// handleBus serves joint bus co-optimization: a group of parallel
// tracks in adjacency order, co-decided per-track countermeasures out,
// with the group's savings against independent worst-case solves.
// Member solves run through the shared engine's worker pool and
// solution cache, so bus traffic warms the same per-shape entries line
// traffic uses — and under a cluster, each member is forwarded to its
// shape's owner like an ordinary pinned line job.
func (s *Server) handleBus(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, "bus")
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	req, ok := s.decodeBus(w, r)
	if !ok {
		return
	}
	br := s.eng.SolveBus(ctx, req.Job())
	s.m.nets.Add(uint64(len(req.Tracks)))
	status := http.StatusOK
	if br.Err != nil {
		s.m.netErrors.Add(1)
		status = statusFor(api.ErrorCode(br.Err))
	}
	respond(w, status, api.FromBusResult(br))
}

// decodeBus mirrors decodeSingle for the bus wire shape: read, decode,
// resolve the technology, cap the group size, apply the default budget
// and validate. On failure the coded bus envelope has been written.
func (s *Server) decodeBus(w http.ResponseWriter, r *http.Request) (api.BusRequest, bool) {
	failBus := func(code, tech, msg string) {
		respond(w, statusFor(code), api.CodedBusErrorResponse(code, tech, msg))
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err != nil {
		failBus(bodyErrCode(err), "", "reading request: "+err.Error())
		return api.BusRequest{}, false
	}
	var req api.BusRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		failBus(api.CodeBadRequest, "", "decoding bus request: "+err.Error())
		return api.BusRequest{}, false
	}
	if _, err := s.eng.Resolve(req.Tech); err != nil {
		s.m.netErrors.Add(1)
		failBus(api.CodeUnknownTech, req.Tech, err.Error())
		return api.BusRequest{}, false
	}
	// The array-batch net cap bounds bus width too: a bus IS a batch of
	// member solves, several per track.
	if len(req.Tracks) > s.opts.MaxBatchNets {
		failBus(api.CodeTooLarge, req.Tech,
			fmt.Sprintf("bus of %d tracks exceeds the %d-net limit", len(req.Tracks), s.opts.MaxBatchNets))
		return api.BusRequest{}, false
	}
	req.ApplyDefault(s.opts.DefaultTargetMult, 0)
	if err := req.Validate(); err != nil {
		s.m.netErrors.Add(1)
		failBus(api.ErrorCode(err), req.Tech, err.Error())
		return api.BusRequest{}, false
	}
	return req, true
}

// handleBatch accepts the two body shapes of the shared wire format: a
// JSON array (the nets.json shape, materialized and solved with
// RunContext) or a JSONL stream (ripcli's -batch shape, solved through
// the engine's bounded streaming window without materializing the
// input). Both emit results in input order with per-net error isolation.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, "batch")
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	br := bufio.NewReaderSize(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes), 64<<10)
	first, err := firstNonSpace(br)
	if err != nil {
		msg := "empty batch body"
		if !errors.Is(err, io.EOF) {
			msg = "reading batch body: " + err.Error()
		}
		s.fail(w, false, bodyErrCode(err), "", "", msg)
		return
	}
	if first == '[' {
		s.batchArray(ctx, w, br)
		return
	}
	s.batchJSONL(ctx, w, br)
}

// feed is the batch paths' line parser: the server's default budget and
// scenario.
func (s *Server) feed() api.FeedOptions {
	return api.FeedOptions{DefaultMult: s.opts.DefaultTargetMult, DefaultScenario: s.opts.DefaultScenario}
}

func (s *Server) batchArray(ctx context.Context, w http.ResponseWriter, br *bufio.Reader) {
	// Elements decode individually (wrapper or bare net, like JSONL
	// lines), so one malformed element fails alone, not the whole batch.
	var raws []json.RawMessage
	if err := json.NewDecoder(br).Decode(&raws); err != nil {
		s.fail(w, false, bodyErrCode(err), "", "", "decoding batch array: "+err.Error())
		return
	}
	if len(raws) > s.opts.MaxBatchNets {
		s.fail(w, false, api.CodeTooLarge, "", "",
			fmt.Sprintf("batch of %d nets exceeds the %d-net limit (stream JSONL instead)", len(raws), s.opts.MaxBatchNets))
		return
	}
	jobs := make([]engine.Job, len(raws))
	parseErrs := make(map[int]api.Response)
	feed := s.feed()
	for i, raw := range raws {
		job, fail := feed.Line(raw, fmt.Sprintf("element %d", i))
		if fail != nil {
			parseErrs[i] = *fail
			continue // zero job: the engine reports it as a nil-net failure
		}
		jobs[i] = job
	}
	results := s.eng.RunContext(ctx, jobs)
	out := make([]api.Response, len(results))
	for i, res := range results {
		out[i] = api.FromResult(res)
		if fail, ok := parseErrs[i]; ok {
			// The element was refused before solving, so its zero job's
			// default-node attribution would be fiction: report only the
			// failure.
			out[i] = fail
		}
		s.m.nets.Add(1)
		if out[i].Err != nil {
			s.m.netErrors.Add(1)
		}
	}
	// Bulk machine-to-machine payload: compact, not indented — a 100k-net
	// array would roughly double in size under writeJSON's indentation.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(out) //nolint:errcheck // response committed
}

func (s *Server) batchJSONL(ctx context.Context, w http.ResponseWriter, br *bufio.Reader) {
	// A JSONL batch is genuinely full duplex: result lines stream out
	// while the body is still arriving. Without EnableFullDuplex,
	// net/http reacts to the first flushed response byte by discarding
	// and closing the unconsumed request body (the issue-15527 deadlock
	// guard), which truncates the stream mid-line whenever solves outrun
	// the upload — warm-cache or tree batches reliably do. Best effort:
	// a transport that cannot do full duplex keeps the old behavior.
	http.NewResponseController(w).EnableFullDuplex() //nolint:errcheck
	w.Header().Set("Content-Type", "application/x-ndjson")
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan engine.Job)
	results := s.eng.RunStreamContext(ctx, jobs)
	// parseErrs maps job index → parse failure so a malformed line is
	// reported at its position with its cause. Guarded: the feeder
	// writes while the result loop reads.
	var mu sync.Mutex
	parseErrs := make(map[int]api.Response)
	note := func(idx int, fail api.Response) {
		mu.Lock()
		parseErrs[idx] = fail
		mu.Unlock()
	}
	go func() {
		defer close(jobs)
		fed, err := api.FeedJSONL(ctx, br, s.feed(), jobs, note)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			// The body broke mid-stream (client gone, line too long).
			// Already-admitted jobs still produce their result lines;
			// the read failure itself goes out as a trailing error
			// line at the index after the last job, where the result
			// loop picks it up once the stream drains.
			note(fed, api.CodedErrorResponse(api.CodeBadRequest, "", "",
				fmt.Sprintf("reading body after %d nets: %v", fed, err)))
		}
	}()

	// abort cancels solving and drains the stream so the engine's
	// workers and sequencer retire instead of leaking when the client
	// can no longer be written to.
	abort := func() {
		cancel()
		for range results {
		}
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	enc := json.NewEncoder(bw)
	flusher, _ := w.(http.Flusher)
	emitted := 0
	for res := range results {
		resp := api.FromResult(res)
		mu.Lock()
		if fail, ok := parseErrs[res.Index]; ok {
			// Refused lines carry only their failure, not the default
			// node's tech attribution (see batchArray).
			resp = fail
		}
		mu.Unlock()
		s.m.nets.Add(1)
		if resp.Err != nil {
			s.m.netErrors.Add(1)
		}
		if err := enc.Encode(resp); err != nil {
			abort()
			return
		}
		if err := bw.Flush(); err != nil {
			abort()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		emitted++
	}
	// A body read error was recorded past the last admitted job: the
	// input was truncated, and silence would look like success.
	mu.Lock()
	trailer, truncated := parseErrs[emitted]
	mu.Unlock()
	if truncated {
		s.m.netErrors.Add(1)
		enc.Encode(trailer) //nolint:errcheck // best-effort trailer
	}
	bw.Flush()
}

// handleLivez is pure process liveness: if this handler runs, the
// process is up. Draining and snapshot loading do not fail it — a
// supervisor must not restart a replica for refusing traffic on
// purpose.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is traffic readiness (also served at /healthz): 503
// while draining or while a cache snapshot load is still running, with
// the ring membership and snapshot age for operators.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.eng.CacheStats()
	status, code := "ok", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load():
		status, code = "loading", http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":        status,
		"workers":       s.eng.Workers(),
		"inflight":      s.m.inflight.Load(),
		"max_inflight":  s.opts.MaxInFlight,
		"cache_entries": st.Entries,
		"technologies":  s.eng.Names(),
		"default_tech":  s.eng.Default(),
		"uptime_s":      time.Since(s.start).Seconds(),
	}
	if s.opts.Cluster != nil {
		body["self"] = s.opts.Cluster.Self()
		body["peers"] = s.opts.Cluster.Peers()
	}
	if s.opts.LastSnapshot != nil {
		if last := s.opts.LastSnapshot(); !last.IsZero() {
			body["snapshot_age_s"] = time.Since(last).Seconds()
		}
	}
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	s.m.writePrometheus(&buf, s.eng, s.start, s.draining.Load(), s.opts.Cluster, s.opts.LastSnapshot)
	w.Write(buf.Bytes())
}

// firstNonSpace peeks past leading JSON whitespace to sniff the body
// shape ('[' = array, anything else = JSONL), leaving the byte unread.
func firstNonSpace(br *bufio.Reader) (byte, error) {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, err
		}
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		default:
			return b, br.UnreadByte()
		}
	}
}

// bodyErrCode maps a body read/decode failure to its envelope code:
// the MaxBytesReader cap is the client sending too much (too_large,
// retriable by streaming JSONL), anything else is a malformed request.
func bodyErrCode(err error) string {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return api.CodeTooLarge
	}
	return api.CodeBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

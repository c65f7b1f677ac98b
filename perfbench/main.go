// Command perfbench is the repository's benchmark: it runs one named
// workload against an in-process ripd (engine.NewMulti + server.New on a
// loopback listener, wired as cmd/ripd wires them), checks every answer,
// and prints the end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload whatif-open --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and what each metric should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// defaultSeed is the seed the golden digests were recorded with.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

var workloads = []string{"flow-cold", "flow-eco", "whatif-open", "xtalk-bus"}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "flow-cold", "workload to run: flow-cold, flow-eco, whatif-open or xtalk-bus")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fail(fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloads))
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fail(err)
	}
	b := &bench{
		name:    *workload,
		seed:    *seed,
		workers: runtime.GOMAXPROCS(0),
		chk:     newChecker(goldenOps[*workload]),
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		b.name, b.seed, *seconds, *trace, runtime.NumCPU(), b.workers, runtime.Version())
	dur := time.Duration(*seconds * float64(time.Second))
	dir, err := scratchDir()
	if err != nil {
		fail(err)
	}
	var res result
	if *trace == 1 {
		res, err = b.traced(dir, dur)
	} else {
		res, err = b.untraced(dir, dur)
	}
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	digest := b.chk.goldenDigest()
	fmt.Printf("golden digest (first %d ops): %s\n", b.chk.goldenOps, digest)
	if b.seed == defaultSeed {
		if want, ok := golden[b.name]; ok && want != digest {
			b.chk.note(fmt.Errorf("golden digest %s, recorded %s", digest, want))
			res.Correct = false
		}
	}
	for _, e := range b.chk.errs {
		fmt.Println("check failed:", e)
	}
	res.Correct = res.Correct && res.Failed == 0 && len(b.chk.errs) == 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setupReps is how many times a run sets the server up; setup_s is the
// median.
func (b *bench) setupReps() int {
	if b.restores() {
		return 61
	}
	return 201
}

func (b *bench) untraced(dir string, dur time.Duration) (result, error) {
	if err := b.prepare(dir); err != nil {
		return result{}, err
	}
	setups, inst, err := measureSetup(b.setupReps(), func() (*instance, error) { return b.startServer(nil) })
	if err != nil {
		return result{}, err
	}
	p, err := b.run(inst, nil, dur, 0)
	if err != nil {
		inst.close()
		return result{}, err
	}
	defer func() { p.inst.close() }()
	if len(p.ops) == 0 {
		return result{}, errNoOps
	}
	m := endToEnd(b.name, p, setups)
	r := summarizePass(p)
	fmt.Printf("requests=%d ok=%d ops=%d wall=%.3fs latency samples=%d queue_p99=%.3fms gen_lag_p99=%.3fms\n",
		r.sent, r.ok, r.ops, p.wall.Seconds(), len(r.okLatMS),
		percentile(r.queueMS, 0.99), percentile(r.lagMS, 0.99))
	fmt.Printf("wall clock: ops_per_s=%.6g p50_ms=%.6g p99_ms=%.6g\n",
		opsPerSecond(b.name, p, r), percentile(r.okLatMS, 0.5), quarterP99(p))
	// The heap is measured with only the server's state live: drop the
	// client's record of the run first.
	res := result{Correct: true, Attempted: r.ops, Failed: r.failed, Metrics: m}
	p.ops, p.replies, p.times = nil, nil, nil
	if k := heapOps[b.name]; k > 0 {
		// A fresh server serves the workload's first k ops again.
		p.inst.close()
		if p.inst, err = b.startServer(nil); err != nil {
			return result{}, err
		}
		hp, err := b.run(p.inst, nil, dur, k)
		if err != nil {
			return result{}, err
		}
		h := summarizePass(hp)
		res.Attempted += h.ops
		res.Failed += h.failed
		p.inst = hp.inst
	}
	b.base = nil
	b.chk.dropAnswers()
	m.set("heap_live_mb", heapLiveMB(), "MiB")
	return res, nil
}

// traced runs the workload twice for half the run each, untraced then
// traced, on fresh servers, then replays the traced half in process.
func (b *bench) traced(dir string, dur time.Duration) (result, error) {
	if err := b.prepare(dir); err != nil {
		return result{}, err
	}
	_, instA, err := measureSetup(b.setupReps(), func() (*instance, error) { return b.startServer(nil) })
	if err != nil {
		return result{}, err
	}
	pA, err := b.run(instA, nil, dur/2, 0)
	if err != nil {
		instA.close()
		return result{}, err
	}
	pA.inst.close()

	httpTr := &Tracer{}
	instB, err := b.startServer(httpTr)
	if err != nil {
		return result{}, err
	}
	pB, err := b.run(instB, httpTr, dur/2, 0)
	if err != nil {
		instB.close()
		return result{}, err
	}
	snap, err := snapshotRoundTrip(dir, pB.inst.m, b.workers)
	pB.inst.close()
	if err != nil {
		return result{}, err
	}
	if len(pA.ops) == 0 || len(pB.ops) == 0 {
		return result{}, errNoOps
	}

	replayTr := &Tracer{}
	rs, err := b.replay(pB.ops, replayTr)
	if err != nil {
		return result{}, err
	}
	m, err := b.perLayer(pA, pB, httpTr.Spans(), rs, replayTr.Spans(), snap)
	if err != nil {
		return result{}, err
	}
	a, bb := summarizePass(pA), summarizePass(pB)
	fmt.Printf("untraced half: requests=%d ops=%d; traced half: requests=%d ops=%d; replayed ops=%d\n",
		a.sent, a.ops, bb.sent, bb.ops, rs.attempted)
	return result{
		Correct:   true,
		Attempted: a.ops + bb.ops + rs.attempted,
		Failed:    a.failed + bb.failed + rs.failed,
		Metrics:   m,
	}, nil
}

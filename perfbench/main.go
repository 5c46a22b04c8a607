// Command perfbench is the repository's end-to-end benchmark. It serves
// solves through the full in-process path — loopback HTTP → cluster
// router → two local nodes (sched + server) → core solvers on simulated
// GPUs — under one of three closed-loop workloads, checks every response
// with an independent balanced-residual oracle, and prints the metrics.
//
//	perfbench --workload paper-solve|repeat-small|upload-unique \
//	          --seed N --seconds S --trace 0|1 [--out DIR]
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics from a traced run, writes the spans and
// the CPU profile under --out, and states the tracing overhead. The last
// line of standard output is one JSON object with the verdict and the
// metrics. bash perfbench/run.sh builds the program and runs it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"
)

// setups is how many times an untraced run builds its stack; setup_s is
// their median.
const setups = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans, profiles and the modeled-time ledger")
	flag.Parse()
	o.trace = traceFlag == 1
	if flag.NArg() > 0 || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(o options) (*result, error) {
	if !slices.Contains(workloadNames, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	printHost()
	chk := newChecker()
	build, err := buildID()
	if err != nil {
		return nil, err
	}
	ledger := ledgerFile(o.out, build, o.workload, o.seed)
	if err := chk.loadPrior(ledger); err != nil {
		return nil, err
	}
	dur := time.Duration(o.seconds) * time.Second
	var res *result
	if o.trace {
		res, err = tracedRun(o, chk, dur)
	} else {
		res, err = untracedRun(o, chk, dur)
	}
	if err != nil {
		return nil, err
	}
	if err := chk.saveLedger(ledger); err != nil {
		return nil, err
	}
	res.Failed = chk.failed()
	res.Correct = res.Failed == 0
	fmt.Printf("requests: attempted=%d succeeded=%d failed=%d error_rate=%g failures: %s\n",
		res.Attempted, res.Attempted-res.Failed, res.Failed,
		float64(res.Failed)/float64(res.Attempted), chk.tally())
	fmt.Printf("oracle: relres_max=%.6g orig_relres_max=%.6g relres_agreement=%.3g (tol %g, slack %g)\n",
		chk.relMax, chk.origMax, chk.agreeMax, tol, relSlack)
	return res, nil
}

// setup builds the workload and the stack, and sends the warm-up pass.
func setup(o options, chk *checker) (*workload, *stack, int, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := newStack()
	if err != nil {
		return nil, nil, 0, err
	}
	warm := st.run(w, chk, 0, w.warm, 0, nil)
	return w, st, warm.attempted, nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(o options, chk *checker, dur time.Duration) (*result, error) {
	var times []float64
	var w *workload
	var st *stack
	attempted := 0
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		var n int
		var err error
		w, st, n, err = setup(o, chk)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		attempted += n
		if k < setups-1 {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
	}
	win := st.run(w, chk, w.warm, w.warm+w.prefix, dur, nil)
	attempted += win.attempted
	modeled := prefixModeled(win.modeled, w.warm, w.prefix)
	// The server's retained heap: the client holds no request bodies and
	// drops the workload before the collection.
	clients := w.clients
	w = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := st.close(); err != nil {
		return nil, err
	}
	solves := float64(max(win.ok, 1))
	fmt.Printf("window: %s seed=%d clients=%d seconds=%.3f solves=%d latency_samples=%d setups=%v\n",
		o.workload, o.seed, clients, win.elapsed, win.ok, len(win.latMS), times)
	printKinds(win.kindMS)
	metrics, err := collect(endToEnd, map[string]float64{
		"throughput_rps":       float64(win.ok) / win.elapsed,
		"latency_p50_ms":       quantile(win.latMS, 0.5),
		"latency_p90_ms":       quantile(win.latMS, 0.9),
		"modeled_ms_per_solve": modeled * 1e3,
		"cpu_ms_per_solve":     win.cpu * 1e3 / solves,
		"alloc_kb_per_solve":   float64(win.alloc) / 1024 / solves,
		"heap_live_mb":         float64(ms.HeapAlloc) / (1 << 20),
		"setup_s":              quantile(times, 0.5),
	})
	if err != nil {
		return nil, err
	}
	printMetrics(metrics)
	return &result{Attempted: attempted, Metrics: metrics}, nil
}

// collect pairs every defined metric with its computed value.
func collect(defs []metricDef, m map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out, nil
}

// prefixModeled is the mean modeled seconds over the oracle-passing
// solves among stream indices [from, from+n). Any index missing here
// failed and is already tallied, so the run reports correct=false.
func prefixModeled(m map[int]float64, from, n int) float64 {
	var t float64
	k := 0
	for i := from; i < from+n; i++ {
		if v, ok := m[i]; ok {
			t += v
			k++
		}
	}
	return t / float64(max(k, 1))
}

// tracedRun measures the per-layer metrics: an untraced half window for
// the throughput baseline, a traced half window with the CPU profiler
// on, then the core replay of the modeled prefix.
func tracedRun(o options, chk *checker, dur time.Duration) (*result, error) {
	w, st, attempted, err := setup(o, chk)
	if err != nil {
		return nil, err
	}
	half := dur / 2
	plain := st.run(w, chk, w.warm, w.warm+w.prefix, half, nil)
	tr := newTracer()
	st.trace.Store(tr)
	c0 := st.counters()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		st.close()
		return nil, err
	}
	traced := st.run(w, chk, plain.next, plain.next, half, tr)
	pprof.StopCPUProfile()
	st.trace.Store(nil)
	c1 := st.counters()
	if err := st.close(); err != nil {
		return nil, err
	}
	attempted += plain.attempted + traced.attempted

	rep, err := replayCore(w, w.warm, w.prefix, tr)
	if err != nil {
		return nil, err
	}
	for i, v := range rep.modeled {
		if served, ok := plain.modeled[i]; ok && served != v {
			chk.fail(classReplay)
		}
	}
	samples, reqB, respB, spans := tr.breakdown()
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := writeSpans(base+".spans.jsonl", spans); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	cp, err := readCPUProfile(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	flat, cum, nsamples := cp.attribute()

	col := func(f func(layerSample) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s) * 1e3
		}
		return out
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	solves := float64(c1.solves - c0.solves)
	per := float64(max(rep.n, 1))
	thrPlain := float64(plain.ok) / plain.elapsed
	thrTraced := float64(traced.ok) / traced.elapsed
	m := map[string]float64{
		"client.http_self_ms_p50":    quantile(col(func(s layerSample) float64 { return s.clientSelf }), 0.5),
		"router.self_ms_p50":         quantile(col(func(s layerSample) float64 { return s.routerSelf }), 0.5),
		"router.hops_per_solve":      ratio(solves+float64(c1.reroutes-c0.reroutes), solves),
		"server.self_ms_p50":         quantile(col(func(s layerSample) float64 { return s.nodeSelf }), 0.5),
		"server.request_kb":          reqB / 1024,
		"server.response_kb":         respB / 1024,
		"sched.queue_wait_ms_p50":    quantile(col(func(s layerSample) float64 { return s.wait }), 0.5),
		"sched.queue_wait_ms_p90":    quantile(col(func(s layerSample) float64 { return s.wait }), 0.9),
		"sched.service_ms_p50":       quantile(col(func(s layerSample) float64 { return s.service }), 0.5),
		"sched.jobs_per_lease":       ratio(float64(c1.dispatched-c0.dispatched), float64(c1.leases-c0.leases)),
		"core.prepare_ms":            quantile(rep.prepMS, 0.5),
		"core.solve_ms":              quantile(rep.solveMS, 0.5),
		"core.iters_per_solve":       float64(rep.iters) / per,
		"core.restarts_per_solve":    float64(rep.restarts) / per,
		"core.refinements_per_solve": float64(rep.refinements) / per,
		"gpu.rounds_per_solve":       float64(rep.rounds) / per,
		"gpu.messages_per_solve":     float64(rep.messages) / per,
		"gpu.bytes_per_solve":        float64(rep.bytes) / per,
		"gpu.gflop_per_solve":        rep.flops / 1e9 / per,
		"gpu.kernels_per_solve":      float64(rep.kernels) / per,
		"check.relres_max":           chk.relMax,
		"check.orig_relres_max":      chk.origMax,
		"check.relres_agreement":     chk.agreeMax,
		"trace.overhead_pct":         100 * (thrPlain - thrTraced) / thrPlain,
	}
	for _, ph := range replayPhases {
		m["gpu.modeled_ms."+ph] = rep.phaseSeconds[ph] * 1e3 / per
	}
	for _, b := range cpuBuckets {
		m["cpu_share."+b] = flat[b]
	}
	for _, c := range cpuCumulative {
		m["cpu_cum."+c.name] = cum[c.name]
	}
	metrics, err := collect(perLayer, m)
	if err != nil {
		return nil, err
	}
	fmt.Printf("traced: %s seed=%d untraced %.1f solves/s over %.3fs, traced %.1f solves/s over %.3fs (overhead %.2f%%), %d layer samples, %d profile samples, %d replayed solves\n",
		o.workload, o.seed, thrPlain, plain.elapsed, thrTraced, traced.elapsed, m["trace.overhead_pct"], len(samples), nsamples, rep.n)
	fmt.Printf("traced: spans %s.spans.jsonl, cpu profile %s.cpu.pprof\n", base, base)
	printLayerTable(metrics)
	return &result{Attempted: attempted, Metrics: metrics}, nil
}

// printHost records the host facts with every run.
func printHost() {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					rev += "+dirty"
				}
			}
		}
	}
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

func printMetrics(ms map[string]metric) {
	for _, d := range endToEnd {
		fmt.Printf("metric %-22s %14.6g %-10s %s\n", d.name, ms[d.name].Value, d.unit, d.about)
	}
}

// printLayerTable prints each per-layer metric with the end-to-end
// metric and workload it is expected to move.
func printLayerTable(ms map[string]metric) {
	fmt.Printf("%-30s %14s %-10s %s\n", "layer metric", "value", "unit", "moves")
	for _, d := range perLayer {
		fmt.Printf("%-30s %14.6g %-10s %s\n", d.name, ms[d.name].Value, d.unit, d.about)
	}
}

// printKinds prints the latency of each request kind in the window.
func printKinds(kinds map[string][]float64) {
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("kind %-40s n=%-5d p50=%.3fms max=%.3fms\n", k, len(kinds[k]), quantile(kinds[k], 0.5), quantile(kinds[k], 1))
	}
}

package main

// metricDef describes one reported metric. about says what an
// end-to-end metric measures, or which end-to-end metric a per-layer
// metric should move and on which workload; on the other workloads it
// should barely move.
type metricDef struct {
	name, unit, better, about string
}

// endToEnd are the metrics an untraced run reports (--trace 0).
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", "oracle-passing solves per wall second of the window"},
	{"latency_p50_ms", "ms", "lower", "client wall time, send to fully read response"},
	{"latency_p90_ms", "ms", "lower", "client wall time, send to fully read response"},
	{"modeled_ms_per_solve", "virtual_ms", "lower", "mean modeled_seconds over the fixed stream prefix"},
	{"cpu_ms_per_solve", "ms", "lower", "process user+sys CPU over the window / solves"},
	{"alloc_kb_per_solve", "KiB", "lower", "TotalAlloc over the window / solves"},
	{"heap_live_mb", "MiB", "lower", "HeapAlloc after runtime.GC at window end"},
	{"setup_s", "s", "lower", "median of 5 set-ups: nodes, router, matrices, upload body template, warm-up pass"},
}

// perLayer are the metrics a traced run reports (--trace 1).
var perLayer = []metricDef{
	{"client.http_self_ms_p50", "ms", "lower", "latency_p50_ms on repeat-small, upload-unique"},
	{"router.self_ms_p50", "ms", "lower", "latency_p50_ms on repeat-small, upload-unique"},
	{"router.hops_per_solve", "count", "lower", "error_rate, latency_p90_ms on all workloads"},
	{"server.self_ms_p50", "ms", "lower", "latency_p50_ms, cpu_ms_per_solve on upload-unique"},
	{"server.request_kb", "KiB", "lower", "cpu_ms_per_solve on upload-unique"},
	{"server.response_kb", "KiB", "lower", "cpu_ms_per_solve on paper-solve"},
	{"sched.queue_wait_ms_p50", "ms", "lower", "latency_p90_ms on repeat-small"},
	{"sched.queue_wait_ms_p90", "ms", "lower", "latency_p90_ms on repeat-small"},
	{"sched.service_ms_p50", "ms", "lower", "latency_p50_ms on all workloads"},
	{"sched.jobs_per_lease", "count", "higher", "none here: constant 1 at two clients on two nodes, where no second same-key job can wait; would move throughput_rps on repeat-small"},
	{"core.prepare_ms", "ms", "lower", "cpu_ms_per_solve on repeat-small, upload-unique"},
	{"core.solve_ms", "ms", "lower", "latency_p50_ms on paper-solve"},
	{"core.iters_per_solve", "count", "lower", "modeled_ms_per_solve, cpu_ms_per_solve on paper-solve"},
	{"core.restarts_per_solve", "count", "lower", "modeled_ms_per_solve, cpu_ms_per_solve on paper-solve"},
	{"core.refinements_per_solve", "count", "lower", "modeled_ms_per_solve, cpu_ms_per_solve on paper-solve"},
	{"gpu.modeled_ms.spmv", "virtual_ms", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.modeled_ms.mpk", "virtual_ms", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.modeled_ms.orth", "virtual_ms", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.modeled_ms.borth", "virtual_ms", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.modeled_ms.tsqr", "virtual_ms", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.modeled_ms.lsq", "virtual_ms", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.modeled_ms.vec", "virtual_ms", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.rounds_per_solve", "count", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.messages_per_solve", "count", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.bytes_per_solve", "B", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.gflop_per_solve", "Gflop", "lower", "modeled_ms_per_solve on paper-solve"},
	{"gpu.kernels_per_solve", "count", "lower", "cpu_ms_per_solve on repeat-small (one RunAll fan-out per launch)"},
	{"cpu_share.la", "%", "lower", "cpu_ms_per_solve on paper-solve"},
	{"cpu_share.sparse", "%", "lower", "cpu_ms_per_solve on paper-solve (SpMV), upload-unique (parse)"},
	{"cpu_share.ortho", "%", "lower", "cpu_ms_per_solve on paper-solve"},
	{"cpu_share.dist", "%", "lower", "cpu_ms_per_solve on paper-solve, repeat-small (device-matrix build)"},
	{"cpu_share.graph", "%", "lower", "cpu_ms_per_solve, alloc_kb_per_solve on repeat-small"},
	{"cpu_share.matgen", "%", "lower", "none: matrices are generated in set-up, outside the profiled window"},
	{"cpu_share.core", "%", "lower", "cpu_ms_per_solve on paper-solve"},
	{"cpu_share.gpu", "%", "lower", "cpu_ms_per_solve on repeat-small"},
	{"cpu_share.sched", "%", "lower", "cpu_ms_per_solve on repeat-small"},
	{"cpu_share.server", "%", "lower", "cpu_ms_per_solve on upload-unique"},
	{"cpu_share.cluster", "%", "lower", "cpu_ms_per_solve on repeat-small, upload-unique"},
	{"cpu_share.obs", "%", "lower", "cpu_ms_per_solve on repeat-small"},
	{"cpu_share.encoding_json", "%", "lower", "cpu_ms_per_solve on upload-unique"},
	{"cpu_share.strconv", "%", "lower", "cpu_ms_per_solve on upload-unique"},
	{"cpu_share.fnv", "%", "lower", "cpu_ms_per_solve on upload-unique"},
	{"cpu_share.net_http", "%", "lower", "latency_p50_ms on repeat-small, upload-unique"},
	{"cpu_share.syscall", "%", "lower", "latency_p50_ms on repeat-small, upload-unique"},
	{"cpu_share.gc", "%", "lower", "cpu_ms_per_solve, alloc_kb_per_solve on repeat-small"},
	{"cpu_share.malloc", "%", "lower", "cpu_ms_per_solve, alloc_kb_per_solve on repeat-small"},
	{"cpu_share.runtime", "%", "lower", "cpu_ms_per_solve on repeat-small"},
	{"cpu_share.bench", "%", "lower", "none: the client goroutines (request bodies, send, oracle), inside every measured window"},
	{"cpu_share.other", "%", "lower", "cpu_ms_per_solve on upload-unique (reflect under encoding/json)"},
	{"cpu_cum.core_newproblem", "%", "lower", "cpu_ms_per_solve on repeat-small, upload-unique"},
	{"cpu_cum.dist_distribute", "%", "lower", "cpu_ms_per_solve on repeat-small"},
	{"cpu_cum.sparse_readmm", "%", "lower", "cpu_ms_per_solve on upload-unique"},
	{"cpu_cum.encoding_json", "%", "lower", "cpu_ms_per_solve on upload-unique (router and server JSON, not the client)"},
	{"check.relres_max", "ratio", "lower", "none: must stay <= tol on every workload"},
	{"check.orig_relres_max", "ratio", "lower", "none: informational, never gated"},
	{"check.relres_agreement", "ratio", "lower", "none: oracle vs server relres"},
	{"trace.overhead_pct", "%", "lower", "none: traced vs untraced throughput_rps"},
}

package main

// workloadKind selects how a workload's operations reach the stack.
type workloadKind int

const (
	// kindSubmit sends whole loops as SUBMIT jobs.
	kindSubmit workloadKind = iota
	// kindSession opens OPEN_SESSION streams once and then sends
	// SUBMIT_DELTA batches over them.
	kindSession
)

// workloadSpec is one traffic mix. The rates and the window are frozen
// absolute numbers: they are never derived from a
// measurement at run time, because a recalibrated rate would hide a
// regression. The `why` line of each workload in BENCHMARK.json repeats
// them (the tests keep the two in step).
type workloadSpec struct {
	name string
	kind workloadKind
	// gateway routes the client through a gateway in front of two
	// backends instead of straight to one backend.
	gateway bool
	// wide draws uniformly over the large mixed-regime population
	// instead of Zipf over the hot-key population.
	wide bool
	// lightRate and busyRate are the open-loop arrival rates in ops/s,
	// about 4-10% and 7-15% of the closed-loop saturation throughput
	// measured on a 2-vCPU x86-64 VM when the benchmark was defined; the
	// busy interval is 1.6-2.8 times the op's unloaded latency (light
	// p50). Busier rates (12-37% of saturation, intervals 0.65-1.9 times
	// that latency) sat near the knee where ops start to queue behind
	// each other: on that VM, whose host lends it CPU unevenly, busy p50
	// then spread by 0.2-0.4 of its median over ten runs of the same
	// code. A closed busy loop of 4 in-flight ops kept the CPUs as busy
	// as saturation does and followed the host's speed as closely,
	// spreading by up to 0.29.
	lightRate, busyRate float64
	// window is the in-flight window of the saturation phase. Session
	// workloads pipeline one delta per session, so their window is the
	// session count.
	window int
}

// sessionCount is how many streaming sessions session_delta opens.
const sessionCount = 8

var workloadSpecs = []workloadSpec{
	{name: "zipf_direct", kind: kindSubmit, lightRate: 200, busyRate: 300, window: 32},
	{name: "zipf_gateway", kind: kindSubmit, gateway: true, lightRate: 170, busyRate: 250, window: 32},
	{name: "wide_cold", kind: kindSubmit, wide: true, lightRate: 500, busyRate: 800, window: 32},
	{name: "session_delta", kind: kindSession, lightRate: 300, busyRate: 450, window: sessionCount},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec names one printed metric. The lists below are the single
// source of the names, units and directions BENCHMARK.json declares.
type metricSpec struct {
	name, unit, better string
	// moves names the end-to-end metric and workload a change in this
	// layer metric should show up in (per-layer metrics only).
	moves string
}

var endToEndMetrics = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_ops_s", unit: "ops/s", better: "higher"},
	{name: "lat_p50_ms.light", unit: "ms", better: "lower"},
	{name: "lat_p50_ms.busy", unit: "ms", better: "lower"},
	{name: "peak_heap_mb", unit: "MiB", better: "lower"},
}

const (
	movesClient  = "lat_p50_ms.light on zipf_direct; little on wide_cold"
	movesWire    = "throughput_ops_s and lat_p50_ms.light on zipf_direct and zipf_gateway; little on session_delta"
	movesServer  = "throughput_ops_s on zipf_direct; failed ops (BUSY, session gone) on session_delta"
	movesCluster = "lat_p50_ms.busy and throughput_ops_s on zipf_gateway only"
	movesQueue   = "lat_p50_ms.busy on zipf_direct and zipf_gateway"
	movesInspect = "throughput_ops_s on wide_cold"
	movesSegs    = "throughput_ops_s on session_delta"
	movesAdapt   = "throughput_ops_s and setup_s on wide_cold; setup_s on zipf_direct and zipf_gateway"
	movesReduce  = "throughput_ops_s on wide_cold and session_delta"
	movesHarness = "none: validates the measurement itself"
	// The busy tail is reported from the traced run rather than bounded
	// end to end: on the 2-vCPU VM the benchmark was defined on, host CPU
	// steal moved busy p95 by up to 0.87 of its median over ten runs.
	movesTail = "lat_p50_ms.busy on every workload; its own spread is dominated by host CPU steal"
)

var perLayerMetrics = []metricSpec{
	{"client.submit_us.p50", "us", "lower", movesClient},
	{"client.unattributed_us.p50", "us", "lower", movesClient},
	{"client.busy", "count", "lower", movesClient},
	{"client.conn_lost", "count", "lower", movesClient},

	{"wire.req_bytes_per_op", "bytes", "lower", movesWire},
	{"wire.req_frame_bytes_per_op", "bytes", "lower", movesWire},
	{"wire.resp_bytes_per_op", "bytes", "lower", movesWire},
	{"wire.backend_bytes_per_op", "bytes", "lower", movesCluster},
	{"wire.encode_us_per_op", "us", "lower", movesWire},
	{"wire.decode_us_per_op", "us", "lower", movesWire},

	{"server.decode_us.p50", "us", "lower", movesServer},
	{"server.decode_us.p95", "us", "lower", movesServer},
	{"server.decode_us.per_op", "us", "lower", movesServer},
	{"server.intern_us.p50", "us", "lower", movesServer},
	{"server.intern_us.p95", "us", "lower", movesServer},
	{"server.intern_us.per_op", "us", "lower", movesServer},
	{"server.merge_us.p50", "us", "lower", movesServer},
	{"server.merge_us.p95", "us", "lower", movesServer},
	{"server.merge_us.per_op", "us", "lower", movesServer},
	{"server.encode_us.p50", "us", "lower", movesServer},
	{"server.encode_us.p95", "us", "lower", movesServer},
	{"server.encode_us.per_op", "us", "lower", movesServer},
	{"server.intern_hit_ratio", "ratio", "higher", movesServer},
	{"server.busy", "count", "lower", movesServer},
	{"server.session_evictions", "count", "lower", movesServer},

	{"cluster.route_us.p50", "us", "lower", movesCluster},
	{"cluster.backend_wait_us.p50", "us", "lower", movesCluster},
	{"cluster.backend_wait_us.p95", "us", "lower", movesCluster},
	{"cluster.retry_backoff_us.per_op", "us", "lower", movesCluster},
	{"cluster.busy_retries", "count", "lower", movesCluster},
	{"cluster.spills", "count", "lower", movesCluster},
	{"cluster.affinity_ratio", "ratio", "higher", movesCluster},

	{"engine.queue_wait_us.p50", "us", "lower", movesQueue},
	{"engine.queue_wait_us.p95", "us", "lower", movesQueue},
	{"engine.execute_us.p50", "us", "lower", movesReduce},
	{"engine.execute_us.p95", "us", "lower", movesReduce},
	{"engine.execute_us.per_op", "us", "lower", movesReduce},
	{"engine.inspect_us.p50", "us", "lower", movesInspect},
	{"engine.inspect_per_op", "ratio", "lower", movesInspect},
	{"engine.jobs_per_batch", "ratio", "higher", movesQueue},
	{"engine.cache_hit_ratio", "ratio", "higher", movesInspect},
	{"engine.cache_evictions", "count", "lower", movesInspect},
	{"engine.recalibrations", "count", "lower", movesInspect},
	{"engine.session_seg_reuse_ratio", "ratio", "higher", movesSegs},

	{"adapt.inspect_replay_us.p50", "us", "lower", movesAdapt},
	{"reduction.run_replay_us.p50", "us", "lower", movesReduce},

	{"lat_p99_ms.busy", "ms", "lower", movesTail},
	{"harness.error_rate", "ratio", "lower", movesHarness},
	{"gen.late_ms.p99", "ms", "lower", movesHarness},
	{"trace.kept_ratio", "ratio", "higher", movesHarness},
	{"trace.reconciled_ratio", "ratio", "higher", movesHarness},
	{"trace.unattributed_share", "ratio", "lower", movesHarness},
	{"trace.overhead_pct", "%", "lower", movesHarness},
}

package main

// The names in this file are the benchmark's contract: every later
// performance or simplicity change is judged with them, BENCHMARK.json is
// checked against them by TestBenchmarkJSONMatchesSpec, and README.md is the
// prose form of the same tables.

// Workload names (final).
const (
	wServeCG   = "serve-cg"
	wServeMPIR = "serve-mpir"
	wServeWire = "serve-wire"
	wCluster   = "cluster-mixed"
	wSimCold   = "sim-cold"
)

type workloadSpec struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
}

var workloads = []workloadSpec{
	{wServeCG, "closed loop, nproc clients, tiny wire, CG+Jacobi on poisson3d:32: execution is >=90% of the request, so only the native fused kernels move it"},
	{wServeMPIR, "same request on poisson3d:24 with the service default mpir-dw+pbicgstab+ilu0: level-set ILU0, codelets and double-word residuals, the path no table measured"},
	{wServeWire, "explicit 54 kB Gaussian b and full x on poisson3d:14: over a third of the request is decode, queue, acquire, non-lean Solve, verify, allocation and encode"},
	{wCluster, "open loop at a fixed rate through ipurouterd + 3 shards: solves, batches, PATCH, register/DELETE and GET side by side, the only router-hop and write workload"},
	{wSimCold, "in-process Prepare+Solve on the cycle-accurate sim backend: partition, halo, compile, engine, hostpool; serving never touches it and its cycle counts must repeat exactly"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

func isServe(w string) bool { return w == wServeCG || w == wServeMPIR || w == wServeWire }

// clusterRate is the frozen offered rate of cluster-mixed in scheduled ops/s
// (the DELETE that follows each register rides on top of it). Closed-loop
// capacity of the same mix on the 2-core reference box was measured with
// `-capacity` before freezing; see README.md.
const clusterRate = 50

// metricSpec describes one metric. Gated end-to-end metrics are the ones every
// workload can report and are listed under end_to_end in BENCHMARK.json; the
// others are end-to-end in results.json and `-compare` only where they apply,
// and ride in BENCHMARK.json as per-layer entries under their Layer name.
type metricSpec struct {
	Name    string
	Unit    string
	Better  string   // "lower" or "higher"
	Bound   float64  // share of the base median by which it may worsen
	Applies []string // workloads; nil = all
	Gated   bool
	Layer   string // per-layer name used when not gated
}

var (
	allServe  = []string{wServeCG, wServeMPIR, wServeWire}
	httpLoads = []string{wServeCG, wServeMPIR, wServeWire, wCluster}
	onlyMixed = []string{wCluster}
	onlySim   = []string{wSimCold}
)

// endToEnd is the issue's twelve end-to-end metrics. latency_* additionally
// report the suite-pass time on sim-cold because the driver wants every gated
// metric from every workload.
//
// The bounds are what the 2-core reference box can resolve, not what the issue
// hoped for (0.07-0.15): two sets of ten 20 s runs of one commit, taken
// minutes apart, showed interquartile spreads of up to 0.08 on throughput,
// 0.20 on latency_p50_ms, 0.29 on latency_p90_ms and 0.19 on cpu_s_per_op
// (all worst on cluster-mixed, whose CPU time per op itself drifted by 31%
// with the host's other tenants) and medians that moved by up to 0.15 between
// the sets (sim-cold). README.md has the table. latency_p90_ms cannot meet
// even the contract's largest bound on cluster-mixed and is therefore
// demoted to a per-layer metric, as the issue prescribes.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.20, Gated: true},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Gated: true},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "loadgen.latency_p90_ms"},
	{Name: "batch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Applies: onlyMixed, Layer: "loadgen.batch_p50_ms"},
	{Name: "patch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Applies: onlyMixed, Layer: "loadgen.patch_p50_ms"},
	{Name: "register_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Applies: onlyMixed, Layer: "loadgen.register_p50_ms"},
	{Name: "time_to_solution_s", Unit: "s", Better: "lower", Bound: 0.25, Applies: onlySim, Layer: "loadgen.time_to_solution_s"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Bound: 0, Layer: "loadgen.fail_frac"},
	{Name: "sim_cycles_total", Unit: "count", Better: "lower", Bound: 0, Applies: onlySim, Layer: "ipu.sim_cycles_total"},
}

// layerSpec is one per-layer metric: what it measures, where, and which
// end-to-end metric it is expected to move (the interaction table).
type layerSpec struct {
	Name    string
	Unit    string
	Better  string
	Applies []string // workloads that measure it; nil = all
	Moves   string   // which end-to-end metric, on which workload
}

const (
	movesExec   = "latency_p50_ms, throughput_ops_s, cpu_s_per_op on serve-cg (fused kernels) and serve-mpir (codelet/level-set); half weight on serve-wire; nothing on sim-cold"
	movesLean   = "latency_p50_ms, throughput_ops_s, cpu_s_per_op on serve-wire; latency_p50_ms, cpu_s_per_op on cluster-mixed; <=3% on serve-cg/serve-mpir"
	movesPrep   = "register_p50_ms on cluster-mixed, time_to_solution_s on sim-cold, setup_s everywhere"
	movesPatch  = "patch_p50_ms on cluster-mixed"
	movesSim    = "time_to_solution_s on sim-cold with sim_cycles_total and every ipu.* count unchanged"
	movesNone   = "context: explains a move, gates nothing"
	movesExact  = "must repeat exactly between runs of one commit"
	movesHealth = "should stay 0; a rise explains fail_frac or a latency tail"
)

var perLayer = []layerSpec{
	// loadgen: the generator's own health and the ungated client-side numbers.
	{"loadgen.sent", "count", "higher", nil, movesNone},
	{"loadgen.ok", "count", "higher", nil, movesNone},
	{"loadgen.failed", "count", "lower", nil, "fail_frac"},
	{"loadgen.late_frac", "ratio", "lower", onlyMixed, "a late generator invalidates cluster-mixed latency"},
	{"loadgen.late_p99_ms", "ms", "lower", onlyMixed, "same"},
	{"loadgen.cpu_frac", "ratio", "lower", nil, "generator CPU share of the box; above 0.25 the generator perturbs the daemons"},
	{"loadgen.latency_p99_ms", "ms", "lower", httpLoads, "reported, not gated: swings 11-12% run to run"},
	{"loadgen.latency_max_ms", "ms", "lower", httpLoads, "reported, not gated"},
	{"loadgen.http_echo_ms", "ms", "lower", allServe, "floor of the HTTP stack at the workload's body sizes; part of the R4 model"},
	{"loadgen.build_s", "s", "lower", httpLoads, "go build of the daemons, excluded from setup_s"},

	{"sparse.gen_ms", "ms", "lower", nil, "setup_s"},
	{"sparse.fingerprint_ms", "ms", "lower", nil, movesPrep},
	{"sparse.mulvec_us", "us", "lower", nil, "baseline only: plain single-threaded CSR"},
	{"sparse.mulvec_gbs_computed", "GB/s", "higher", nil, "computed from array sizes"},

	{"partition.contiguous_ms", "ms", "lower", nil, movesPrep},
	{"partition.greedy_ms", "ms", "lower", nil, movesPrep},
	{"partition.edgecut", "count", "lower", nil, movesExact},
	{"partition.imbalance", "ratio", "lower", nil, movesExact},
	{"halo.build_ms", "ms", "lower", nil, movesPrep},
	{"halo.halo_cells", "count", "lower", nil, movesExact},
	{"halo.instructions", "count", "lower", nil, movesExact},

	{"core.prepare_ms", "ms", "lower", httpLoads, movesPrep},
	{"core.prepare_sim_ms", "ms", "lower", nil, movesPrep},
	{"core.solveinto_ms", "ms", "lower", allServe, "ladder rung R1"},
	{"core.solveinto_self_ms", "ms", "lower", allServe, movesLean},
	{"core.solve_ms", "ms", "lower", allServe, "ladder rung R2, what serving calls today"},
	{"core.solve_self_ms", "ms", "lower", allServe, "R2-R1, the lean-path gap: " + movesLean},
	{"core.updatevalues_ms", "ms", "lower", httpLoads, movesPatch},
	{"core.solveinto_allocs_per_op", "count", "lower", allServe, movesLean},
	{"core.solve_allocs_per_op", "count", "lower", allServe, movesLean},
	{"core.solve_bytes_per_op", "B", "lower", allServe, movesLean},

	{"backend.exec_ms", "ms", "lower", allServe, "ladder rung R0: " + movesExec},
	{"backend.iter_us", "us", "lower", allServe, movesExec},
	{"backend.iter_over_mulvec", "ratio", "lower", allServe, movesExec},
	{"backend.flops_per_iter_computed", "count", "lower", allServe, "computed from the solver recurrence and nnz"},
	{"backend.bytes_per_iter_computed", "B", "lower", allServe, "computed from array sizes"},
	{"backend.sim_over_native", "ratio", "higher", nil, "host-time ratio of the two backends on one system"},

	{"solver.iterations", "count", "lower", nil, movesExact},
	{"solver.relres", "ratio", "lower", nil, movesExact},
	{"solver.restarts", "count", "lower", nil, movesExact},

	{"serve.solve_ms", "ms", "lower", allServe, "ladder rung R3"},
	{"serve.solve_self_ms", "ms", "lower", allServe, "R3-R2: " + movesLean},
	{"serve.http_ms", "ms", "lower", httpLoads, "ladder rung R4"},
	{"serve.http_self_ms", "ms", "lower", allServe, "R4-R3: " + movesLean},
	{"serve.decode_ms", "ms", "lower", allServe, movesLean},
	{"serve.encode_ms", "ms", "lower", allServe, movesLean},
	{"serve.solve_allocs_per_op", "count", "lower", allServe, movesLean},
	{"serve.register_ms", "ms", "lower", httpLoads, movesPrep},
	{"serve.update_ms", "ms", "lower", httpLoads, movesPatch},
	{"serve.batch_over_single", "ratio", "lower", httpLoads, "batch_p50_ms on cluster-mixed"},
	{"serve.cache_hits", "count", "higher", httpLoads, movesNone},
	{"serve.cache_misses", "count", "lower", httpLoads, "each is a cold Prepare inside a request"},
	{"serve.evictions", "count", "lower", httpLoads, movesHealth},
	{"serve.retries", "count", "lower", httpLoads, movesHealth},
	{"serve.rejected", "count", "lower", httpLoads, movesHealth},
	{"serve.verify_failed", "count", "lower", httpLoads, movesHealth},
	{"serve.refreshed", "count", "higher", onlyMixed, "PATCHes that refreshed a warm replica in place"},

	{"cluster.http_ms", "ms", "lower", onlyMixed, "ladder rung R5"},
	{"cluster.hop_ms", "ms", "lower", onlyMixed, "R5-R4: latency_p50_ms on cluster-mixed only"},
	{"cluster.routed", "count", "higher", onlyMixed, movesNone},
	{"cluster.failovers", "count", "lower", onlyMixed, movesHealth},
	{"cluster.retries", "count", "lower", onlyMixed, movesHealth},
	{"cluster.reregistrations", "count", "lower", onlyMixed, movesHealth},
	{"cluster.shard_skew", "ratio", "lower", onlyMixed, "max/mean solves per shard; the busiest shard sets the tail"},

	{"graph.exec_ms", "ms", "lower", onlySim, movesSim},
	{"graph.host_s_per_mcycle", "s", "lower", onlySim, movesSim},
	{"ipu.supersteps", "count", "lower", onlySim, movesExact},
	{"ipu.compute_cycles", "count", "lower", onlySim, movesExact},
	{"ipu.exchange_cycles", "count", "lower", onlySim, movesExact},
	{"ipu.sync_cycles", "count", "lower", onlySim, movesExact},
	{"ipu.exchange_bytes", "count", "lower", onlySim, movesExact},
	{"hostpool.speedup", "ratio", "higher", onlySim, movesSim},

	{"telemetry.scrape_ms", "ms", "lower", httpLoads, movesNone},
	{"telemetry.scrape_bytes", "B", "lower", httpLoads, movesNone},

	{"ladder.model_over_measured", "ratio", "higher", allServe, "the ladder closes when this is within [0.9, 1.1]"},
	{"ladder.top_over_e2e", "ratio", "lower", allServe, "R4 against an untraced 1-client probe: the tracing overhead"},
}

// layerMetrics is perLayer plus the end-to-end metrics that are not gated,
// under their per-layer names: the per_layer list of BENCHMARK.json.
func layerMetrics() []layerSpec {
	out := append([]layerSpec(nil), perLayer...)
	for _, m := range endToEnd {
		if !m.Gated {
			out = append(out, layerSpec{m.Layer, m.Unit, m.Better, m.Applies, "end-to-end where it applies; gated by -compare"})
		}
	}
	return out
}

func applies(list []string, w string) bool {
	if list == nil {
		return true
	}
	for _, x := range list {
		if x == w {
			return true
		}
	}
	return false
}

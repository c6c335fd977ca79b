package main

// The metric tables below are the code's side of BENCHMARK.json; the
// test in this directory holds the two equal.

type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd is printed by an untraced run of every workload.
var endToEnd = []metricSpec{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is printed by a traced run of every workload. A metric whose
// layer the workload never enters reads 0 there: gibbs.* away from
// tail_tpch, server.* and admit.* away from serve_mix, a statement kind
// the workload does not issue.
var perLayer = []metricSpec{
	{name: "bench.timed_ops", unit: "count", better: "higher"},
	{name: "bench.untraced_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.traced_p50_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "bench.harness_self_ms", unit: "ms", better: "lower"},
	{name: "bench.gen_late_p90_ms", unit: "ms", better: "lower"},
	{name: "check.result_rel_err", unit: "ratio", better: "lower"},

	{name: "sqlish.parse_us", unit: "us", better: "lower"},
	{name: "plan.prepare_cold_us", unit: "us", better: "lower"},
	{name: "plan.prepare_hit_us", unit: "us", better: "lower"},
	{name: "plan.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "exec.prefix_hit_ratio", unit: "ratio", better: "higher"},
	{name: "exec.prefix_miss_ms", unit: "ms", better: "lower"},
	{name: "exec.run_workers1_ms", unit: "ms", better: "lower"},
	{name: "exec.run_workers2_ms", unit: "ms", better: "lower"},
	{name: "exec.parallel_efficiency", unit: "ratio", better: "higher"},

	{name: "mcdbr.prepare_ms", unit: "ms", better: "lower"},
	{name: "mcdbr.run_ms", unit: "ms", better: "lower"},
	{name: "mcdbr.run_fixed_ms.tpch", unit: "ms", better: "lower"},
	{name: "mcdbr.run_fixed_ms.grouped", unit: "ms", better: "lower"},
	{name: "mcdbr.run_fixed_ms.having", unit: "ms", better: "lower"},
	{name: "mcdbr.run_fixed_ms.quickstart", unit: "ms", better: "lower"},
	{name: "mcdbr.run_fixed_ms.fig2", unit: "ms", better: "lower"},
	{name: "mcdbr.run_fixed_ms.detprefix", unit: "ms", better: "lower"},
	{name: "mcdbr.per_replicate_us.tpch", unit: "us", better: "lower"},
	{name: "mcdbr.per_replicate_us.grouped", unit: "us", better: "lower"},
	{name: "mcdbr.per_replicate_us.having", unit: "us", better: "lower"},
	{name: "mcdbr.per_replicate_us.quickstart", unit: "us", better: "lower"},
	{name: "mcdbr.per_replicate_us.fig2", unit: "us", better: "lower"},
	{name: "mcdbr.per_replicate_us.detprefix", unit: "us", better: "lower"},
	{name: "mcdbr.having_penalty", unit: "ratio", better: "lower"},
	{name: "mcdbr.stmt_ms.quickstart", unit: "ms", better: "lower"},
	{name: "mcdbr.stmt_ms.fig2", unit: "ms", better: "lower"},
	{name: "mcdbr.stmt_ms.having", unit: "ms", better: "lower"},
	{name: "mcdbr.stmt_ms.detprefix", unit: "ms", better: "lower"},
	{name: "mcdbr.stmt_ms.scalar", unit: "ms", better: "lower"},

	{name: "gibbs.step_share_of_op", unit: "ratio", better: "lower"},
	{name: "gibbs.init_ms", unit: "ms", better: "lower"},
	{name: "gibbs.step_ms", unit: "ms", better: "lower"},
	{name: "gibbs.us_per_candidate", unit: "us", better: "lower"},
	{name: "gibbs.candidates_per_op", unit: "count", better: "lower"},
	{name: "gibbs.accept_ratio", unit: "ratio", better: "higher"},
	{name: "gibbs.giveups_per_op", unit: "count", better: "lower"},
	{name: "gibbs.replenish_per_op", unit: "count", better: "lower"},

	{name: "vg.sample_ns", unit: "ns", better: "lower"},
	{name: "seeds.materialize_ms", unit: "ms", better: "lower"},
	{name: "pq.pushpop_ns", unit: "ns", better: "lower"},
	{name: "pq.spilled_runs", unit: "count", better: "lower"},
	{name: "expr.kernel_compile_us", unit: "us", better: "lower"},
	{name: "expr.kernel_eval_ns_per_row", unit: "ns", better: "lower"},
	{name: "stats.summarize_us", unit: "us", better: "lower"},

	{name: "server.overhead_p50_ms.interactive", unit: "ms", better: "lower"},
	{name: "server.overhead_p50_ms.normal", unit: "ms", better: "lower"},
	{name: "server.overhead_p50_ms.batch", unit: "ms", better: "lower"},
	{name: "server.overhead_p90_ms.interactive", unit: "ms", better: "lower"},
	{name: "server.overhead_p90_ms.normal", unit: "ms", better: "lower"},
	{name: "server.overhead_p90_ms.batch", unit: "ms", better: "lower"},
	{name: "server.encode_us", unit: "us", better: "lower"},
	{name: "server.response_bytes", unit: "count", better: "lower"},
	{name: "admit.wait_p95_ms.interactive", unit: "ms", better: "lower"},
	{name: "admit.wait_p95_ms.normal", unit: "ms", better: "lower"},
	{name: "admit.wait_p95_ms.batch", unit: "ms", better: "lower"},
	{name: "admit.shed", unit: "count", better: "lower"},
	{name: "admit.timed_out", unit: "count", better: "lower"},
	{name: "admit.degraded", unit: "count", better: "lower"},
}

package main

import "gpuport/internal/analysis"

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd is every end-to-end metric; each untraced run prints all
// of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"fresh_p50_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"ok_share", "share"},
	{"peak_rss_mb", "MB"},
}

// perLayer is every per-layer metric; each traced run prints all of
// them. Times are medians over the traced run's ops, allocation counts
// are per op, and the rest are counts from the run.
var perLayer = func() []metricDef {
	var defs []metricDef
	layer := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	analysisLayers := []string{"analysis.extremes", "analysis.max_oracle", "analysis.rank_configs"}
	for _, d := range analysis.AllDims() {
		analysisLayers = append(analysisLayers, "analysis.specialise."+d.Name())
	}
	analysisLayers = append(analysisLayers, "analysis.per_chip_counts", "analysis.oracle",
		"analysis.heatmap", "analysis.top_speedup_opts", "analysis.evaluate_all")

	// The collection, shared by collect and study-all.
	layer("ms", "graph.generate_ms", "irgl.trace_ms", "columnar.build_ms", "columnar.evaluate_ms",
		"measure.collect_ms", "dataset.write_csv_ms", "collect.unattributed_ms", "collect.traced_op_ms")
	layer("count", "measure.collect_allocs", "irgl.pairs", "irgl.kernel_launches", "irgl.edge_work",
		"columnar.estimates", "dataset.cells")
	layer("bytes", "dataset.csv_bytes")
	// The analysis of study-all.
	layer("ms", "graph.inputs_ms")
	for _, n := range analysisLayers {
		layer("ms", n+"_ms")
	}
	layer("ms", "microbench.table_x_ms", "microbench.launch_overhead_ms", "report.render_ms",
		"study.unattributed_ms", "study-all.traced_op_ms")
	for _, n := range analysisLayers {
		layer("count", n+"_allocs")
	}
	// The campaign server of serve-mixed.
	layer("ms", "server.submit_fresh_ms", "server.submit_hit_ms", "server.result_fresh_ms",
		"server.result_hit_ms", "server.resolve_ms", "measure.fingerprint_ms", "serve-mixed.traced_op_ms")
	layer("bytes", "server.result_bytes", "server.jobdir_bytes")
	layer("ratio", "tracecache.hit_ratio")
	layer("count", "tracecache.lookups", "server.jobs_completed", "server.jobs_cached",
		"server.jobs_deduped", "server.http_errors")
	return defs
}()

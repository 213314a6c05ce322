package main

// endToEndMetrics are printed by every untraced run, perLayerMetrics by
// every traced run; BENCHMARK.json declares the same names and units
// (TestBenchmarkJSONMatchesMetrics keeps them in step). README.md maps
// each per-layer metric to the end-to-end metric it should move. The
// tail latency is reported beside them, in the stamp, but not gated:
// its run-to-run spread on a shared 2-core box is wider than any bound
// a gate may use (README.md, "Why these shapes").
var endToEndMetrics = []string{
	"setup_s",
	"throughput_per_s",
	"latency_p50_ms",
	"read_throughput_per_s",
	"read_latency_p50_ms",
	"rss_peak_mb",
	"ok_ratio",
}

var perLayerMetrics = []string{
	"tensor.o_ns_per_nnz_col",
	"tensor.r_ns_per_nnz_col",
	"sparse.w_ns_per_nnz_col",
	"tensor.o_gbps_computed",
	"tensor.r_gbps_computed",
	"sparse.w_gbps_computed",
	"tensor.o_flops_per_byte",
	"tensor.r_flops_per_byte",
	"sparse.w_flops_per_byte",
	"tensor.normalise_s",
	"markov.w_build_s",
	"tmark.iterations",
	"tmark.ms_per_iteration",
	"accel.iterations_saved",
	"par.speedup_x",
	"serve.batch_width_mean",
	"serve.batch_solve_ms",
	"serve.queue_wait_ms",
	"serve.codec_us",
	"serve.rejected",
	"stream.apply_ms",
	"stream.changes",
	"stream.touched_columns",
	"stream.touched_tubes",
	"stream.warm_iterations",
	"artifact.encode_hash_ms",
	"artifact.put_ms",
	"artifact.blob_mb",
	"artifact.activate_ms",
	"artifact.mapped_blobs",
	"wal.append_ms",
	"trace.overhead_pct",
}

var units = map[string]string{
	"setup_s":               "s",
	"throughput_per_s":      "1/s",
	"latency_p50_ms":        "ms",
	"read_throughput_per_s": "1/s",
	"read_latency_p50_ms":   "ms",
	"rss_peak_mb":           "MB",
	"ok_ratio":              "ratio",

	"tensor.o_ns_per_nnz_col": "ns",
	"tensor.r_ns_per_nnz_col": "ns",
	"sparse.w_ns_per_nnz_col": "ns",
	"tensor.o_gbps_computed":  "GB/s",
	"tensor.r_gbps_computed":  "GB/s",
	"sparse.w_gbps_computed":  "GB/s",
	"tensor.o_flops_per_byte": "flop/B",
	"tensor.r_flops_per_byte": "flop/B",
	"sparse.w_flops_per_byte": "flop/B",
	"tensor.normalise_s":      "s",
	"markov.w_build_s":        "s",
	"tmark.iterations":        "count",
	"tmark.ms_per_iteration":  "ms",
	"accel.iterations_saved":  "count",
	"par.speedup_x":           "x",
	"serve.batch_width_mean":  "count",
	"serve.batch_solve_ms":    "ms",
	"serve.queue_wait_ms":     "ms",
	"serve.codec_us":          "us",
	"serve.rejected":          "count",
	"stream.apply_ms":         "ms",
	"stream.changes":          "count",
	"stream.touched_columns":  "count",
	"stream.touched_tubes":    "count",
	"stream.warm_iterations":  "count",
	"artifact.encode_hash_ms": "ms",
	"artifact.put_ms":         "ms",
	"artifact.blob_mb":        "MB",
	"artifact.activate_ms":    "ms",
	"artifact.mapped_blobs":   "count",
	"wal.append_ms":           "ms",
	"trace.overhead_pct":      "%",
}

// zeroLayers starts a traced run's per-layer map with every metric at
// 0: a layer the workload does not run reports 0.
func zeroLayers() map[string]float64 {
	out := make(map[string]float64, len(perLayerMetrics))
	for _, name := range perLayerMetrics {
		out[name] = 0
	}
	return out
}

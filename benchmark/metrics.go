package main

// The metric catalogue: the one place a metric's name, unit, direction
// and regression bound are written down. BENCHMARK.json repeats it for
// the pipeline; a test keeps the two equal.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of idlog/idlogd sees. Bound is the share of
// the baseline median by which the metric may worsen before a change
// counts as a regression. The bounds are as wide as they are because the
// reference host is: the same build on the same seed moves by a tenth
// and more between one ten-minute stretch and the next (see README.md,
// "How steady the numbers are"), and a bound has to be about three times
// the spread between runs before a movement of that size means anything.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p95", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"read_ms_p50", "ms", "lower", 0.25},
	{"read_ms_p95", "ms", "lower", 0.25},
	{"scan_ms_p50", "ms", "lower", 0.25},
}

// perLayer lists the traced pass's metrics, one layer (package) per
// prefix. They carry no bound: they explain a movement, they do not
// gate one. A layer a workload never enters reports 0.
var perLayer = []metricDef{
	{"traced_op_ms_p50", "ms", "lower", 0},
	{"trace_overhead_ratio", "ratio", "lower", 0},

	{"parser_ms", "ms", "lower", 0},
	{"parser_mb_per_s", "MB/s", "higher", 0},
	{"analysis_ms", "ms", "lower", 0},
	{"magic_ms", "ms", "lower", 0},
	{"magic_applied_ratio", "ratio", "higher", 0},

	{"core_eval_ms", "ms", "lower", 0},
	{"core_plan_ms", "ms", "lower", 0},
	{"core_derivations", "count", "lower", 0},
	{"core_inserted", "count", "lower", 0},
	{"core_scanned", "count", "lower", 0},
	{"core_iterations", "count", "lower", 0},
	{"core_id_relations", "count", "lower", 0},
	{"core_useful_derivation_ratio", "ratio", "higher", 0},
	{"core_scanned_per_inserted", "ratio", "lower", 0},
	{"core_plancache_hit_ratio", "ratio", "higher", 0},
	{"core_parallel_speedup", "ratio", "higher", 0},

	{"relation_idmat_ms", "ms", "lower", 0},
	{"relation_index_build_ms", "ms", "lower", 0},
	{"relation_indexed_tuples", "count", "lower", 0},
	{"relation_partitioned_tuples", "count", "lower", 0},

	{"incremental_apply_ms", "ms", "lower", 0},
	{"incremental_rederive_ratio", "ratio", "lower", 0},

	{"wal_append_ms", "ms", "lower", 0},
	{"wal_appends", "count", "lower", 0},
	{"wal_write_amp", "ratio", "lower", 0},
	{"wal_fsyncs", "count", "lower", 0},
	{"wal_checkpoints", "count", "lower", 0},
	{"wal_checkpoint_stall_ms", "ms", "lower", 0},

	{"segment_cache_hit_ratio", "ratio", "higher", 0},
	{"segment_at_us", "us", "lower", 0},
	{"segment_scan_mtuples_per_s", "Mtuples/s", "higher", 0},
	{"storage_bulkload_s", "s", "lower", 0},
	{"storage_bytes_per_tuple", "B/tuple", "lower", 0},

	{"server_handler_ms", "ms", "lower", 0},
	{"server_transport_ms", "ms", "lower", 0},
	{"server_eval_ms", "ms", "lower", 0},
	{"server_prepared_hit_ratio", "ratio", "higher", 0},
	{"server_magic_ratio", "ratio", "higher", 0},
	{"server_admission_rejected", "count", "lower", 0},
}

// workloadDef names a workload and says in one line why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"batch_tc", "dense recursion through Program.Eval: the join loop, index build and ordered merge do the work; parser, magic, wal, server, segment do none"},
	{"batch_idlit", "non-recursive ID-literal strata (sampling, choice, guess-and-check): grouping and ID-relation materialization dominate, the fixpoint loop barely runs"},
	{"cli_batch", "one idlog process per op over a fact file: text parsing, loading and printing dominate, evaluation is small"},
	{"serve_point", "read-only Zipf point queries against idlogd: per-request decode, prepared/plan cache, magic cone and encode dominate; wal and incremental idle"},
	{"serve_mixed", "WAL-backed writer beside a reader on one session: every write invalidates plan caches, so read and write costs trade off; fsync, DRed and checkpoints dominate writes"},
	{"disk_cold", "disk engine with a block cache far smaller than the data: block decode and the LRU dominate; every other workload fits in memory"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

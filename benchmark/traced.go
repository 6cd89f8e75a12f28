package main

import (
	"fmt"
	"path/filepath"
	"time"

	"idlog/internal/relation"
)

// newWorkload builds the named workload, unset-up.
func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case "batch_tc":
		return newBatchTC(cfg), nil
	case "batch_idlit":
		return newBatchIDLit(cfg), nil
	case "cli_batch":
		return newCLIBatch(cfg), nil
	case "serve_point":
		return newServePoint(cfg), nil
	case "serve_mixed":
		return newServeMixed(cfg), nil
	case "disk_cold":
		return newDiskCold(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// passCounts is what a single-client pass observed beside latencies.
type passCounts struct {
	lat                  []time.Duration // headline operations
	indexed, partitioned uint64          // relation counter movement during the surface calls
}

// singleClientPass runs the first ops operations of every stream with
// one client, stream by stream in turn. With a tracer each surface call
// is an "op" span and is followed by the operation's layer replay in a
// "replay" span; the two share the operation id.
func singleClientPass(w workload, ss []*stream, ops int, res *runResult, t *tracer) (passCounts, error) {
	var pc passCounts
	op := 0
	for i := 0; i < ops; i++ {
		for _, s := range ss {
			var kind opKind
			var took time.Duration
			var err error
			res.Attempted++
			if t == nil {
				kind, took, err = s.do(i % s.n)
			} else {
				t.setOp(op)
				op++
				// The relation counters are process-wide: read around
				// the surface call, before the replay moves them too.
				i0, p0 := relation.IndexedTuplesTotal(), relation.PartitionedTuplesTotal()
				t.in("op", func() { kind, took, err = s.do(i % s.n) })
				pc.indexed += relation.IndexedTuplesTotal() - i0
				pc.partitioned += relation.PartitionedTuplesTotal() - p0
			}
			if err != nil {
				res.fail(fmt.Errorf("%s op %d: %w", s.name, i%s.n, err))
				continue
			}
			if kind == kindOp {
				pc.lat = append(pc.lat, took)
			}
			if t != nil {
				t.in("replay", func() { err = w.replay(t, s, i%s.n) })
				if err != nil {
					return pc, fmt.Errorf("%s: replay of %s op %d: %w", res.Workload, s.name, i%s.n, err)
				}
			}
		}
	}
	return pc, nil
}

// runTraced is the traced run: set-up and warm-up once, then the first
// tenth of the operation sequence twice with one client — untraced, for
// the overhead ratio, then traced. Spans stay in memory until the pass is
// over and are written to out/trace-<workload>.json.
func runTraced(cfg runConfig) (*runResult, error) {
	res := newRunResult(cfg)
	w, err := setUp(cfg, res)
	if err != nil {
		return nil, err
	}
	defer w.close()
	ss := w.streams()
	for _, s := range ss {
		res.Ops[s.name], res.Clients[s.name] = s.n, 1
	}
	res.SeqHash = sequenceHash(ss)
	ops := ss[0].n / 10
	if ops < 1 {
		ops = 1
	}

	untraced, err := singleClientPass(w, ss, ops, res, nil)
	if err != nil {
		return nil, err
	}
	if err := w.rewind(); err != nil {
		return nil, err
	}
	if err := w.beginTrace(); err != nil {
		return nil, fmt.Errorf("%s: begin trace: %w", cfg.workload, err)
	}
	t := newTracer()
	traced, err := singleClientPass(w, ss, ops, res, t)
	if err != nil {
		return nil, err
	}
	if err := w.rewind(); err != nil {
		return nil, err
	}

	m := res.Metrics
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	m["traced_op_ms_p50"] = ms(percentile(traced.lat, 0.5))
	m["trace_overhead_ratio"] = ratio(m["traced_op_ms_p50"], ms(percentile(untraced.lat, 0.5)))
	m["parser_ms"] = t.medianMS("parser.")
	m["analysis_ms"] = t.medianMS("analysis.")
	m["magic_ms"] = t.medianMS("magic.")
	m["core_eval_ms"] = t.medianMS("core.eval")
	// core.ExplainPlan evaluates the program once to see the
	// cardinalities the planner saw, so this is one evaluation plus
	// planning and rendering.
	m["core_plan_ms"] = t.medianMS("diag.core_explain_plan")
	m["core_parallel_speedup"] = ratio(t.medianMS("diag.core_seq_eval"), t.medianMS("diag.core_default_eval"))
	m["relation_idmat_ms"] = t.medianMS("relation.idmat")
	m["relation_index_build_ms"] = t.medianMS("relation.index_build") + t.medianMS("diag.relation_index_build")
	m["relation_indexed_tuples"] = float64(traced.indexed)
	m["relation_partitioned_tuples"] = float64(traced.partitioned)
	m["incremental_apply_ms"] = t.medianMS("incremental.")
	m["wal_append_ms"] = t.medianMS("wal.")
	for k, v := range w.counters().counterMetrics(t) {
		m[k] = v
	}
	extra, err := w.layerMetrics(t)
	if err != nil {
		return nil, err
	}
	for k, v := range extra {
		m[k] = v
	}
	for k := range m {
		if _, ok := findMetric(perLayer, k); !ok {
			return nil, fmt.Errorf("%s: layer metric %q is not in the catalogue", cfg.workload, k)
		}
	}

	shares := t.shares(w.counters().containerTime)
	fmt.Fprintf(cfg.log, "%s: layer self time over %d traced operations\n", cfg.workload, len(traced.lat))
	for _, s := range shares {
		fmt.Fprintf(cfg.log, "  %-12s %10.3f ms  %5.1f %%\n", s.Layer, s.SelfMS, 100*s.Share)
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := writeTrace(path, traceFile{Workload: cfg.workload, Seed: cfg.seed, Ops: ops, Shares: shares, Metrics: m, Spans: t.spans}); err != nil {
		return nil, err
	}
	return res, nil
}

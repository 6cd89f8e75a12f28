package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, workload string, seed int64) runConfig {
	t.Helper()
	return runConfig{workload: workload, seed: seed, sizes: sizesFor(true, 0),
		outDir: t.TempDir(), benchDir: ".", log: io.Discard}
}

// TestSmoke runs every workload at smoke sizes, untraced and traced:
// every check passes, every catalogued metric is reported, end-to-end
// metrics are never zero, and the trace file holds nested spans.
func TestSmoke(t *testing.T) {
	for _, wd := range workloadDefs {
		t.Run(wd.Name, func(t *testing.T) {
			cfg := smokeConfig(t, wd.Name, 1)
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}
			if _, err := resultLine(res, endToEnd); err != nil {
				t.Error(err)
			}

			traced, err := runTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Fatalf("traced pass: %d failed: %v", traced.Failed, traced.Failures)
			}
			if _, err := resultLine(traced, perLayer); err != nil {
				t.Error(err)
			}
			if traced.Metrics["traced_op_ms_p50"] <= 0 || traced.Metrics["core_eval_ms"] <= 0 {
				t.Errorf("traced pass measured nothing: %v", traced.Metrics)
			}
			b, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+wd.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			nested := false
			for _, s := range tf.Spans {
				if s.End < s.Start {
					t.Fatalf("span %d ends before it starts", s.ID)
				}
				nested = nested || s.Parent != 0
			}
			if !nested || len(tf.Shares) == 0 {
				t.Errorf("trace has %d spans, nested=%v, %d layers", len(tf.Spans), nested, len(tf.Shares))
			}
		})
	}
}

// TestLayerPredictions pins the layer facts that hold at any size: the
// ID-relation materialization shows on batch_idlit and not on batch_tc,
// and only serve_mixed enters wal and incremental.
func TestLayerPredictions(t *testing.T) {
	layer := func(workload string) map[string]float64 {
		res, err := runTraced(smokeConfig(t, workload, 1))
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	if m := layer("batch_tc"); m["relation_idmat_ms"] != 0 || m["core_id_relations"] != 0 || m["parser_ms"] != 0 {
		t.Errorf("batch_tc entered idmat or the parser: %v", m)
	}
	if m := layer("batch_idlit"); m["relation_idmat_ms"] <= 0 || m["core_id_relations"] <= 0 {
		t.Errorf("batch_idlit did not materialize ID-relations: %v", m)
	}
	if m := layer("serve_point"); m["wal_append_ms"] != 0 || m["incremental_apply_ms"] != 0 || m["server_handler_ms"] <= 0 || m["magic_applied_ratio"] != 1 {
		t.Errorf("serve_point layers: %v", m)
	}
	if m := layer("serve_mixed"); m["wal_append_ms"] <= 0 || m["incremental_apply_ms"] <= 0 || m["wal_appends"] <= 0 || m["incremental_rederive_ratio"] <= 0 {
		t.Errorf("serve_mixed layers: %v", m)
	}
	if m := layer("disk_cold"); m["segment_at_us"] <= 0 || m["storage_bytes_per_tuple"] <= 0 {
		t.Errorf("disk_cold layers: %v", m)
	}
}

// TestSeedIsTheOnlyRandomness: the same seed gives a byte-identical
// operation sequence and identical exact-count layer metrics across two
// in-process runs; another seed gives another sequence on which every
// check still passes.
func TestSeedIsTheOnlyRandomness(t *testing.T) {
	for _, name := range []string{"batch_tc", "batch_idlit", "cli_batch", "disk_cold", "serve_mixed"} {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) *runResult {
				res, err := runTraced(smokeConfig(t, name, seed))
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Fatalf("seed %d: %d failed: %v", seed, res.Failed, res.Failures)
				}
				return res
			}
			a, b, c := run(7), run(7), run(8)
			if a.SeqHash != b.SeqHash {
				t.Errorf("same seed, different operation sequences: %s vs %s", a.SeqHash, b.SeqHash)
			}
			if a.SeqHash == c.SeqHash {
				t.Errorf("seeds 7 and 8 gave the same operation sequence")
			}
			counts := exactCounts
			if name == "serve_mixed" {
				// Two clients inside idlogd's own evaluation make its
				// index volume timing-dependent; the log count is not.
				counts = []string{"wal_appends"}
			}
			for _, m := range counts {
				if a.Metrics[m] != b.Metrics[m] {
					t.Errorf("%s: %v then %v with the same seed", m, a.Metrics[m], b.Metrics[m])
				}
			}
		})
	}
}

// TestWrongAnswerFails: an operation whose check fails is counted as
// failed and turns the result line's correct to false.
func TestWrongAnswerFails(t *testing.T) {
	res := &runResult{Workload: "x", Metrics: map[string]float64{}}
	s := &stream{name: "s", clients: 1, n: 4,
		describe: func(int) string { return "" },
		do: func(i int) (opKind, time.Duration, error) {
			if i == 2 {
				return kindOp, time.Millisecond, errors.New("wrong answer")
			}
			return kindOp, time.Millisecond, nil
		}}
	rep := runPass([]*stream{s}, 4, 0, res)
	if res.Attempted != 4 || res.Failed != 1 || len(rep.lat[kindOp]) != 3 {
		t.Fatalf("attempted %d failed %d ok %d", res.Attempted, res.Failed, len(rep.lat[kindOp]))
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = 1
	}
	line, err := resultLine(res, endToEnd)
	if err != nil || !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"failed":1`) {
		t.Fatalf("%s, %v", line, err)
	}
}

func TestCheckers(t *testing.T) {
	// 0→1→2, 2→0 is a cycle: everything reaches everything, itself included.
	rows := closure(4, []edge{{0, 1}, {1, 2}, {2, 0}})
	if countTrue(rows...) != 9 || !rows[0][0] || rows[3][0] || rows[0][3] {
		t.Errorf("closure: %v", rows)
	}
	adj := map[string][]string{"a": {"b", "c"}, "b": {"d"}, "c": {"d"}}
	if got := reachFrom(adj, "a"); !sameStrings(got, []string{"b", "c", "d"}) {
		t.Errorf("reachFrom: %v", got)
	}
	if got := twoSteps(adj, "a"); !sameStrings(got, []string{"d"}) {
		t.Errorf("twoSteps: %v", got)
	}

	members := map[emp]bool{{"ann", "toys"}: true, {"bob", "toys"}: true, {"cy", "shoes"}: true, {"di", "shoes"}: true}
	if err := checkSample([]emp{{"ann", "toys"}, {"bob", "toys"}, {"cy", "shoes"}, {"di", "shoes"}}, members, 2, 2); err != nil {
		t.Error(err)
	}
	if checkSample([]emp{{"ann", "toys"}, {"cy", "shoes"}, {"di", "shoes"}}, members, 2, 2) == nil {
		t.Error("a department with one row passed a sample of two")
	}
	if checkSample([]emp{{"ann", "toys"}, {"eve", "toys"}, {"cy", "shoes"}, {"di", "shoes"}}, members, 2, 2) == nil {
		t.Error("a row that is no employee passed")
	}
	if checkChoice([]emp{{"ann", "toys"}, {"bob", "toys"}, {"cy", "shoes"}}, members, 2) == nil {
		t.Error("two names for one department passed the functional dependency")
	}

	es := []edge{{0, 1}, {1, 2}}
	if err := checkColouring(3, es, map[int]string{0: "r", 1: "g", 2: "r"}, map[edge]bool{}, true); err != nil {
		t.Error(err)
	}
	if checkColouring(3, es, map[int]string{0: "r", 1: "r", 2: "g"}, map[edge]bool{}, true) == nil {
		t.Error("a monochrome edge passed as proper")
	}
	if err := checkColouring(3, es, map[int]string{0: "r", 1: "r", 2: "g"}, map[edge]bool{{0, 1}: true}, false); err != nil {
		t.Error(err)
	}

	// k=9 on a 10-ring with stride 3: Y ∈ {0, 2}, then Z ∈ {1, 3} and {3, 5}.
	want := [][2]int{{0, 1}, {0, 3}, {2, 3}, {2, 5}}
	if got := ringTwoHop(10, 3, 9); len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Errorf("ringTwoHop: %v, want %v", got, want)
	}
	if ringScan(50) != 100 {
		t.Errorf("ringScan: %d", ringScan(50))
	}

	s := edgeSet{{"a", "b"}: true}
	if ins, del := s.apply([][2]string{{"a", "b"}, {"b", "c"}}, [][2]string{{"x", "y"}}); ins != 1 || del != 0 {
		t.Errorf("apply: +%d −%d", ins, del)
	}
	if d := s.diff(edgeSet{{"a", "b"}: true}); !strings.Contains(d, "b→c") {
		t.Errorf("diff: %q", d)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		d            metricDef
		a, b, sa, sb float64
		want         verdict
	}{
		{lower, 10, 10.5, 0.02, 0.02, unchanged},
		{lower, 10, 11.5, 0.02, 0.02, worse},
		{lower, 10, 8.5, 0.02, 0.02, improved},
		{lower, 10, 11.5, 0.30, 0.02, unresolved},
		{higher, 100, 85, 0.01, 0.01, worse},
		{higher, 100, 115, 0.01, 0.01, improved},
		{higher, 100, 95, 0.01, 0.01, unchanged},
	}
	for _, c := range cases {
		if got, _ := judge(c.d, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("%s %v→%v spreads %v/%v: %s, want %s", c.d.Name, c.a, c.b, c.sa, c.sb, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(p50 float64) *resultFile {
		rf := &resultFile{Workloads: map[string]*runResult{}, Traced: map[string]*runResult{}}
		for _, wd := range workloadDefs {
			r := &runResult{Workload: wd.Name, Metrics: map[string]float64{}, RepSpread: map[string]float64{}}
			for _, d := range endToEnd {
				r.Metrics[d.Name] = 10
			}
			r.Metrics["op_ms_p50"] = p50
			rf.Workloads[wd.Name] = r
		}
		return rf
	}
	dir := t.TempDir()
	write := func(name string, rf *resultFile) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, rf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, slow := write("a.json", mk(10)), write("same.json", mk(10.2)), write("slow.json", mk(14))
	var out bytes.Buffer
	if worse, err := compareFiles(&out, a, same); err != nil || worse {
		t.Fatalf("worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, a, slow); err != nil || !worse || !strings.Contains(out.String(), "6 worse") {
		t.Fatalf("worse=%v err=%v\n%s", worse, err, out.String())
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the
// pipeline reads, equal to the catalogue the driver reports from.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, driver default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v", bj.Paths)
	}
	same := func(kind string, got, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i := range want {
			w := want[i]
			if !bounds {
				w.Bound = 0
			}
			if got[i] != w {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", kind, i, got[i], w)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(bj.Workloads), len(workloadDefs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, wd := range workloadDefs {
		if bj.Workloads[i] != wd {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalogue %+v", i, bj.Workloads[i], wd)
		}
		if len(wd.Why) > 200 || strings.Contains(wd.Why, "\n") || !name.MatchString(wd.Name) || seen[wd.Name] {
			t.Errorf("workload %s breaks the naming rules", wd.Name)
		}
		seen[wd.Name] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %s (%s) breaks the naming rules", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

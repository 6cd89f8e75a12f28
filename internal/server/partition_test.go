package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// denseFacts is a 128-node graph with three out-edges per node: the
// widest delta rounds of its closure (about 5.4k tuples) are large
// enough for the engine to partition them.
func denseFacts() string {
	const n = 128
	var b strings.Builder
	for i := 0; i < n; i++ {
		for _, j := range []int{i + 1, 3*i + 1, 7*i + 2} {
			fmt.Fprintf(&b, "edge(g%d, g%d).\n", i, j%n)
		}
	}
	return b.String()
}

// TestPartitionsWireField drives the per-request "partitions" knob end
// to end: answers are byte-identical to the unpartitioned run at every
// fan-out, bad values are rejected, oversized ones are clamped, the
// partition stats surface in the response, and the counter and skew
// gauge surface on /metrics.
func TestPartitionsWireField(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxParallelism: 4, MaxPartitions: 8})
	facts := denseFacts()

	run := func(partitions, parallelism int) queryResponse {
		t.Helper()
		var qr queryResponse
		code := post(t, ts.URL+"/v1/query", queryRequest{
			Source: tcProgram, Facts: facts, Predicates: []string{"tc"},
			budgetFields: budgetFields{Partitions: partitions, Parallelism: parallelism},
		}, &qr)
		if code != 200 {
			t.Fatalf("partitions=%d: status %d", partitions, code)
		}
		return qr
	}
	base := run(1, 1)
	for _, p := range []int{2, 8, 64} { // 64 exceeds the clamp, still fine
		got := run(p, 2)
		if got.Relations["tc"].Text != base.Relations["tc"].Text {
			t.Fatalf("partitions=%d diverged from unpartitioned", p)
		}
		if got.Stats == nil || got.Stats.Partitions == 0 || got.Stats.PartitionedRounds == 0 {
			t.Fatalf("partitions=%d: partition stats missing from response: %+v", p, got.Stats)
		}
	}
	if base.Stats == nil || base.Stats.Partitions != 0 {
		t.Fatalf("unpartitioned run reported partition stats: %+v", base.Stats)
	}

	var eb errorBody
	if code := post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Facts: tcFacts, Predicates: []string{"tc"},
		budgetFields: budgetFields{Partitions: -1},
	}, &eb); code != 400 {
		t.Fatalf("partitions=-1: status %d, want 400", code)
	}

	if got := s.metrics.partitionedQueries.Load(); got != 3 {
		t.Fatalf("partitioned query counter = %d, want 3", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"idlogd_partitioned_queries_total 3",
		"idlogd_partition_skew_ratio ",
		"idlogd_max_partitions 8",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

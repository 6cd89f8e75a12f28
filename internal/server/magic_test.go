package server

import (
	"bytes"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// magicQueries scrapes idlogd_magic_queries_total from /metrics.
func magicQueries(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		var n int
		if _, err := fmt.Sscanf(line, "idlogd_magic_queries_total %d", &n); err == nil {
			return n
		}
	}
	t.Fatalf("/metrics has no idlogd_magic_queries_total:\n%s", buf.String())
	return 0
}

// TestGoalQueriesUseMagic covers the demand-rewrite surface of goal
// queries: a bound goal is answered through the magic-sets rewrite and
// counted; a free goal evaluates the full program, is not counted, and
// its rows with X = a are the bound goal's rows.
func TestGoalQueriesUseMagic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.RegisterProgram("tc", tcProgram); err != nil {
		t.Fatal(err)
	}
	ask := func(goal string) [][]any {
		t.Helper()
		var qr queryResponse
		if code := post(t, ts.URL+"/v1/query", queryRequest{Program: "tc", Facts: tcFacts, Goal: goal}, &qr); code != 200 {
			t.Fatalf("query %s: status %d", goal, code)
		}
		return qr.Rows
	}

	rows := ask("tc(a, X)")
	if len(rows) != 3 {
		t.Fatalf("tc(a, X) returned %d rows, want 3: %v", len(rows), rows)
	}
	if counted := magicQueries(t, ts.URL); counted != 1 {
		t.Fatalf("bound goal: idlogd_magic_queries_total = %d, want 1", counted)
	}
	var full [][]any
	for _, row := range ask("tc(X, Y)") {
		if row[0] == "a" {
			full = append(full, row[1:])
		}
	}
	if !reflect.DeepEqual(full, rows) {
		t.Fatalf("free goal's rows with X = a are %v, want the rewrite's %v", full, rows)
	}
	if counted := magicQueries(t, ts.URL); counted != 1 {
		t.Fatalf("free goal: idlogd_magic_queries_total = %d, want 1", counted)
	}
}

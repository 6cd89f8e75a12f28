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
// queries: a default server answers a bound goal through the magic-sets
// rewrite and counts it; the per-request "magic": false opt-out and the
// server-wide NoMagic both give the same rows and leave the counter at
// zero.
func TestGoalQueriesUseMagic(t *testing.T) {
	optOut := false
	ask := func(t *testing.T, cfg Config, magic *bool) (rows [][]any, counted int) {
		t.Helper()
		s, ts := newTestServer(t, cfg)
		if err := s.RegisterProgram("tc", tcProgram); err != nil {
			t.Fatal(err)
		}
		var qr queryResponse
		req := queryRequest{Program: "tc", Facts: tcFacts, Goal: "tc(a, X)", Magic: magic}
		if code := post(t, ts.URL+"/v1/query", req, &qr); code != 200 {
			t.Fatalf("query: status %d", code)
		}
		return qr.Rows, magicQueries(t, ts.URL)
	}

	rows, counted := ask(t, Config{}, nil)
	if len(rows) != 3 {
		t.Fatalf("default: tc(a, X) returned %d rows, want 3: %v", len(rows), rows)
	}
	if counted != 1 {
		t.Fatalf("default: idlogd_magic_queries_total = %d, want 1", counted)
	}
	for _, c := range []struct {
		name  string
		cfg   Config
		magic *bool
	}{
		{`"magic": false`, Config{}, &optOut},
		{"NoMagic", Config{NoMagic: true}, nil},
	} {
		got, counted := ask(t, c.cfg, c.magic)
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("%s: rows %v, want the rewrite's %v", c.name, got, rows)
		}
		if counted != 0 {
			t.Fatalf("%s: idlogd_magic_queries_total = %d, want 0", c.name, counted)
		}
	}
}

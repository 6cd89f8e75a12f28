package server

import (
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestGoalParseErrorTyped pins the contract for a malformed goal on an
// otherwise valid request: 400 with the typed engine code, on both the
// registered-program and inline-source paths. The plan cache is always on;
// the subtest keeps its name from when a cache-off mode also ran.
func TestGoalParseErrorTyped(t *testing.T) {
	t.Run("cache on", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		if err := s.RegisterProgram("tc", tcProgram); err != nil {
			t.Fatal(err)
		}
		for _, req := range []queryRequest{
			{Program: "tc", Goal: "tc(a, X"},        // registered program
			{Source: "p(x).", Goal: "p(X), q(Y, )"}, // inline source
		} {
			var eb errorBody
			code := post(t, ts.URL+"/v1/query", req, &eb)
			if code != 400 {
				t.Fatalf("goal %q: status %d, want 400 (%+v)", req.Goal, code, eb)
			}
			if eb.Error.Code != "parse_error" {
				t.Fatalf("goal %q: code %q, want parse_error", req.Goal, eb.Error.Code)
			}
			if !strings.Contains(eb.Error.Message, "goal") {
				t.Fatalf("goal %q: message %q does not name the goal", req.Goal, eb.Error.Message)
			}
		}
	})
}

// TestPreparedQueryCache exercises the prepared-query path: repeated
// goal queries against a registered program and an inline source hit
// the prepared cache (metrics count one miss then hits), every run
// answers the same three rows, and /metrics exposes the counters.
func TestPreparedQueryCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	ask := func(url string, req queryRequest) queryResponse {
		t.Helper()
		var qr queryResponse
		if code := post(t, url+"/v1/query", req, &qr); code != 200 {
			t.Fatalf("query: status %d", code)
		}
		return qr
	}

	req := queryRequest{Source: tcProgram, Facts: tcFacts, Goal: "tc(a, X)"}
	var rows [][]any
	for i := 0; i < 3; i++ {
		qr := ask(ts.URL, req)
		if i == 0 {
			rows = qr.Rows
		}
		if len(qr.Rows) != 3 || !reflect.DeepEqual(qr.Rows, rows) {
			t.Fatalf("run %d: rows %v, want the first run's three %v", i, qr.Rows, rows)
		}
	}

	hits, misses := s.metrics.planCacheHits.Load(), s.metrics.planCacheMisses.Load()
	if misses != 1 || hits != 2 {
		t.Fatalf("prepared cache: hits=%d misses=%d, want 2/1", hits, misses)
	}
	if s.queries.prepared.len() != 1 || s.queries.programs.len() != 1 {
		t.Fatalf("cache sizes: prepared=%d programs=%d, want 1/1",
			s.queries.prepared.len(), s.queries.programs.len())
	}

	// The same goal against a registered program is a distinct entry.
	if err := s.RegisterProgram("tc", tcProgram); err != nil {
		t.Fatal(err)
	}
	ask(ts.URL, queryRequest{Program: "tc", Facts: tcFacts, Goal: "tc(a, X)"})
	ask(ts.URL, queryRequest{Program: "tc", Facts: tcFacts, Goal: "tc(a, X)"})
	if s.queries.prepared.len() != 2 {
		t.Fatalf("prepared entries = %d, want 2", s.queries.prepared.len())
	}

	// Metrics exposition carries the counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	text := buf.String()
	if !strings.Contains(text, "idlogd_plan_cache_hits_total 3") ||
		!strings.Contains(text, "idlogd_plan_cache_misses_total 2") {
		t.Fatalf("metrics missing plan cache counters")
	}
}

// TestQueryCacheLRUEviction pins the bounded-registry behavior: the
// prepared LRU never exceeds its capacity under many distinct goals.
func TestQueryCacheLRUEviction(t *testing.T) {
	c := newLRU[int, int](4)
	for i := 0; i < 100; i++ {
		c.put(i, i)
	}
	if c.len() != 4 {
		t.Fatalf("lru len = %d, want 4", c.len())
	}
	if _, ok := c.get(0); ok {
		t.Fatal("evicted entry still present")
	}
	for i := 96; i < 100; i++ {
		if v, ok := c.get(i); !ok || v != i {
			t.Fatalf("mru entry %d missing", i)
		}
	}
}

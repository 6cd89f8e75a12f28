package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"idlog"
)

// TestEvictIdleSkipsPinned is the table-level regression test for the
// janitor/in-flight race: a pinned session must survive any sweep, and
// become evictable again only after the last unpin.
func TestEvictIdleSkipsPinned(t *testing.T) {
	tbl := newSessionTable(4)
	sess, err := tbl.create("held", idlog.NewDatabase())
	if err != nil {
		t.Fatal(err)
	}
	sess.pin()
	time.Sleep(time.Millisecond)
	if n := tbl.evictIdle(time.Nanosecond); n != 0 {
		t.Fatalf("sweep reaped %d pinned sessions", n)
	}
	if _, ok := tbl.get("held"); !ok {
		t.Fatal("pinned session gone")
	}
	sess.unpin()
	time.Sleep(time.Millisecond)
	if n := tbl.evictIdle(time.Nanosecond); n != 1 {
		t.Fatalf("post-unpin sweep evicted %d sessions, want 1", n)
	}
}

// TestSessionPinnedDuringQuery drives the race end to end: the idle
// sweep fires (zero TTL, so every unpinned session is stale) while a
// query is evaluating against the session, and must not reap it.
func TestSessionPinnedDuringQuery(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.CreateSession("live", tcFacts); err != nil {
		t.Fatal(err)
	}
	hold := func() {
		if n := s.sessions.evictIdle(0); n != 0 {
			t.Errorf("sweep reaped %d sessions out from under an in-flight query", n)
		}
	}
	s.testHold.Store(&hold)
	defer s.testHold.Store(nil)

	var qr queryResponse
	code := post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Session: "live", Goal: "tc(a, X)",
	}, &qr)
	if code != 200 {
		t.Fatalf("query: status %d", code)
	}
	if len(qr.Rows) != 3 {
		t.Fatalf("tc(a, X) returned %d rows, want 3", len(qr.Rows))
	}
	if _, ok := s.sessions.get("live"); !ok {
		t.Fatal("session gone after the query finished")
	}
}

// TestParallelismWireField checks the request knob end to end over a
// graph whose widest rounds fan out: answers are byte-identical to
// sequential, an unset value runs sequentially, bad values are
// rejected, oversized ones are clamped, and the gauge/counter surface
// on /metrics.
func TestParallelismWireField(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxParallelism: 4})
	facts := denseFacts()

	run := func(parallelism int) queryResponse {
		t.Helper()
		var qr queryResponse
		code := post(t, ts.URL+"/v1/query", queryRequest{
			Source: tcProgram, Facts: facts, Predicates: []string{"tc"},
			budgetFields: budgetFields{Parallelism: parallelism},
		}, &qr)
		if code != 200 {
			t.Fatalf("parallelism=%d: status %d", parallelism, code)
		}
		return qr
	}
	seq := run(1)
	// An unset parallelism runs sequentially: same answers, and the
	// request is not counted as parallel.
	if got := run(0); got.Relations["tc"].Text != seq.Relations["tc"].Text {
		t.Fatal("unset parallelism diverged from sequential")
	}
	if got := s.metrics.parallelQueries.Load(); got != 0 {
		t.Fatalf("parallel query counter = %d after sequential and unset requests, want 0", got)
	}
	for _, p := range []int{2, 4, 64} { // 64 exceeds the clamp, still fine
		if got := run(p); got.Relations["tc"].Text != seq.Relations["tc"].Text {
			t.Fatalf("parallelism=%d diverged from sequential", p)
		}
	}

	var eb errorBody
	if code := post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Facts: tcFacts, Predicates: []string{"tc"},
		budgetFields: budgetFields{Parallelism: -1},
	}, &eb); code != 400 {
		t.Fatalf("parallelism=-1: status %d, want 400", code)
	}

	if got := s.metrics.parallelQueries.Load(); got != 3 {
		t.Fatalf("parallel query counter = %d, want 3", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"idlogd_max_parallelism 4", "idlogd_parallel_queries_total 3"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

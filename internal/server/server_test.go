package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestServer spins up a server + httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

const tcProgram = `tc(X, Y) :- edge(X, Y).
tc(X, Z) :- tc(X, Y), edge(Y, Z).`

const tcFacts = `edge(a, b). edge(b, c). edge(c, d).`

func TestProgramRegisterAndQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var pinfo programInfo
	if code := post(t, ts.URL+"/v1/programs", programRequest{Name: "tc", Source: tcProgram}, &pinfo); code != 200 {
		t.Fatalf("register: status %d", code)
	}
	if pinfo.Name != "tc" || len(pinfo.Outputs) != 1 || pinfo.Outputs[0] != "tc" {
		t.Fatalf("program info = %+v", pinfo)
	}

	// Duplicate registration conflicts.
	var eb errorBody
	if code := post(t, ts.URL+"/v1/programs", programRequest{Name: "tc", Source: tcProgram}, &eb); code != 409 {
		t.Fatalf("duplicate register: status %d", code)
	}

	// Goal query with bindings.
	var qr queryResponse
	code := post(t, ts.URL+"/v1/query", queryRequest{
		Program: "tc", Facts: tcFacts, Goal: "tc(a, X)",
	}, &qr)
	if code != 200 {
		t.Fatalf("query: status %d", code)
	}
	if len(qr.Rows) != 3 {
		t.Fatalf("tc(a, X) returned %d rows, want 3: %+v", len(qr.Rows), qr.Rows)
	}

	// Predicate dump matches the CLI's canonical rendering.
	qr = queryResponse{}
	code = post(t, ts.URL+"/v1/query", queryRequest{
		Program: "tc", Facts: tcFacts, Predicates: []string{"tc"},
	}, &qr)
	if code != 200 {
		t.Fatalf("predicates query: status %d", code)
	}
	want := "tc{(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)}"
	if got := qr.Relations["tc"].Text; got != want {
		t.Fatalf("canonical text = %q, want %q", got, want)
	}
	if qr.Stats == nil || qr.Stats.Derivations == 0 {
		t.Fatalf("missing stats: %+v", qr.Stats)
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  queryRequest
		code int
	}{
		{"no program", queryRequest{Goal: "p(X)"}, 400},
		{"both program and source", queryRequest{Program: "a", Source: "p(x).", Goal: "p(X)"}, 400},
		{"no goal or predicates", queryRequest{Source: "p(x)."}, 400},
		{"unknown program", queryRequest{Program: "nope", Goal: "p(X)"}, 404},
		{"parse error", queryRequest{Source: "p(x", Goal: "p(X)"}, 400},
		{"unknown session", queryRequest{Source: "p(x).", Goal: "p(X)", Session: "nope"}, 404},
		{"bad timeout", queryRequest{Source: "p(x).", Goal: "p(X)",
			budgetFields: budgetFields{Timeout: "banana"}}, 400},
	}
	for _, c := range cases {
		var eb errorBody
		if code := post(t, ts.URL+"/v1/query", c.req, &eb); code != c.code {
			t.Errorf("%s: status %d, want %d (%+v)", c.name, code, c.code, eb)
		} else if eb.Error.Code == "" {
			t.Errorf("%s: missing typed error code", c.name)
		}
	}
}

// TestRemovedPartitionsFieldRejected pins that the retired request
// fields "partitions", "parallelism" and "magic" are refused by the
// strict decoder, not silently ignored.
func TestRemovedPartitionsFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, field := range retiredFields {
		var eb errorBody
		code := post(t, ts.URL+"/v1/query", map[string]any{
			"source": tcProgram, "facts": tcFacts, "predicates": []string{"tc"}, field: 4,
		}, &eb)
		if code != 400 || eb.Error.Code != "invalid_argument" || !strings.Contains(eb.Error.Message, `unknown field "`+field+`"`) {
			t.Errorf("%s field: status %d, error %+v; want 400 invalid_argument naming the field", field, code, eb.Error)
		}
	}
}

// TestBudgetTrippedResponses checks the guard-budget → HTTP mapping
// and optional partial results.
func TestBudgetTrippedResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Derivation budget → 429 resource_exhausted.
	var eb errorBody
	code := post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Facts: tcFacts, Predicates: []string{"tc"},
		budgetFields: budgetFields{MaxDerivations: 2, Partial: true},
	}, &eb)
	if code != 429 {
		t.Fatalf("derivation budget: status %d, want 429 (%+v)", code, eb)
	}
	if eb.Error.Code != "resource_exhausted" {
		t.Fatalf("error code %q, want resource_exhausted", eb.Error.Code)
	}
	if eb.Partial == nil || !eb.Partial.Incomplete {
		t.Fatalf("expected partial results, got %+v", eb.Partial)
	}

	// Without partial: just the typed error.
	eb = errorBody{}
	code = post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Facts: tcFacts, Predicates: []string{"tc"},
		budgetFields: budgetFields{MaxTuples: 1},
	}, &eb)
	if code != 429 || eb.Partial != nil {
		t.Fatalf("tuple budget: status %d partial %+v", code, eb.Partial)
	}

	// Timeout → 504 deadline_exceeded. The chain program is sized so a
	// 1ns budget trips before the first checkpoint completes.
	eb = errorBody{}
	code = post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Facts: tcFacts, Predicates: []string{"tc"},
		budgetFields: budgetFields{Timeout: "1ns"},
	}, &eb)
	if code != 504 || eb.Error.Code != "deadline_exceeded" {
		t.Fatalf("timeout: status %d code %q, want 504 deadline_exceeded", code, eb.Error.Code)
	}
}

func TestSampleEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	facts := `emp(joe, toys). emp(sue, toys). emp(bob, shoes). emp(eve, shoes).`
	var sr sampleResponse
	code := post(t, ts.URL+"/v1/sample", sampleRequest{
		Relation: "emp", Arity: 2, GroupBy: []int{2}, K: 1, Seed: 42, Facts: facts,
	}, &sr)
	if code != 200 {
		t.Fatalf("sample: status %d", code)
	}
	if len(sr.Rows) != 2 {
		t.Fatalf("sample returned %d rows, want 2 (one per dept): %v", len(sr.Rows), sr.Rows)
	}
	// Reproducibility: same seed, same sample.
	var sr2 sampleResponse
	post(t, ts.URL+"/v1/sample", sampleRequest{
		Relation: "emp", Arity: 2, GroupBy: []int{2}, K: 1, Seed: 42, Facts: facts,
	}, &sr2)
	if sr.Text != sr2.Text {
		t.Fatalf("same seed produced different samples: %q vs %q", sr.Text, sr2.Text)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var si sessionInfo
	if code := post(t, ts.URL+"/v1/sessions", sessionRequest{Name: "s1", Facts: tcFacts}, &si); code != 200 {
		t.Fatalf("create session: status %d", code)
	}
	// Initial facts arrive as a durable mutation now, so creation with
	// facts lands on snapshot generation 2 (create, then apply).
	if si.Relations["edge"] != 3 || si.Snapshot != 2 {
		t.Fatalf("session info = %+v", si)
	}

	// Query against the session.
	var qr queryResponse
	code := post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Session: "s1", Goal: "tc(a, X)",
	}, &qr)
	if code != 200 || len(qr.Rows) != 3 {
		t.Fatalf("session query: status %d rows %d", code, len(qr.Rows))
	}

	// Advance the snapshot with one more edge; generation bumps.
	var mr mutateResponse
	code = post(t, ts.URL+"/v1/sessions/s1/facts", factsRequest{Facts: "edge(d, e)."}, &mr)
	if code != 200 || mr.Inserted != 1 || mr.Snapshot != 3 {
		t.Fatalf("advance: status %d resp %+v", code, mr)
	}
	qr = queryResponse{}
	post(t, ts.URL+"/v1/query", queryRequest{Source: tcProgram, Session: "s1", Goal: "tc(a, X)"}, &qr)
	if len(qr.Rows) != 4 {
		t.Fatalf("after advance: %d rows, want 4", len(qr.Rows))
	}

	// Ad-hoc facts extend a request-private copy, not the session.
	qr = queryResponse{}
	post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Session: "s1", Facts: "edge(e, f).", Goal: "tc(a, X)",
	}, &qr)
	if len(qr.Rows) != 5 {
		t.Fatalf("session+facts: %d rows, want 5", len(qr.Rows))
	}
	var si2 sessionInfo
	code = post(t, ts.URL+"/v1/sessions/s1/facts", factsRequest{Facts: ""}, &si2)
	if code == 200 && si2.Relations["edge"] != 4 {
		t.Fatalf("ad-hoc facts leaked into session: %+v", si2)
	}

	// List + delete.
	var listing struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	if code := get(t, ts.URL+"/v1/sessions", &listing); code != 200 || len(listing.Sessions) != 1 {
		t.Fatalf("list: status %d sessions %+v", code, listing.Sessions)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/s1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	var eb errorBody
	if code := post(t, ts.URL+"/v1/query", queryRequest{Source: tcProgram, Session: "s1", Goal: "tc(a, X)"}, &eb); code != 404 {
		t.Fatalf("query on deleted session: status %d", code)
	}
}

func TestSessionIdleEviction(t *testing.T) {
	s, _ := newTestServer(t, Config{SessionTTL: 10 * time.Millisecond})
	if err := s.CreateSession("idle", tcFacts); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.sessions.len() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := s.sessions.len(); n != 0 {
		t.Fatalf("session not evicted after TTL: %d live", n)
	}
	if s.metrics.sessionsEvicted.Load() == 0 {
		t.Error("eviction metric not incremented")
	}
}

// TestAdmissionControl pins the single worker slot and checks that
// excess requests are rejected with a typed 429.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, QueueWait: 50 * time.Millisecond})

	holding := make(chan struct{})
	releaseHold := make(chan struct{})
	var once sync.Once
	hold := func() {
		once.Do(func() { close(holding) })
		<-releaseHold
	}
	s.testHold.Store(&hold)

	// Occupy the only slot. The second request never reaches the hold:
	// it is rejected at admission, before the slot is acquired.
	done := make(chan int, 1)
	go func() {
		var qr queryResponse
		done <- post(t, ts.URL+"/v1/query", queryRequest{
			Source: tcProgram, Facts: tcFacts, Goal: "tc(a, X)",
		}, &qr)
	}()
	<-holding

	// Slot busy, queue wait 50ms → the next request exhausts the queue
	// wait and is rejected 429 with the taxonomy code.
	var eb errorBody
	code := post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Facts: tcFacts, Goal: "tc(a, X)",
	}, &eb)
	if code != 429 || eb.Error.Code != "resource_exhausted" {
		t.Fatalf("queued request: status %d code %q, want 429 resource_exhausted", code, eb.Error.Code)
	}

	close(releaseHold)
	if code := <-done; code != 200 {
		t.Fatalf("held request finished with %d", code)
	}

	// Metrics recorded the rejection.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "idlogd_admission_rejected_total 1") {
		t.Errorf("admission rejection not in metrics:\n%s", buf.String())
	}
}

// TestConcurrentQueries is the acceptance check: 64 concurrent
// in-flight queries against one shared program and session, every
// response byte-identical to the single-shot answer.
func TestConcurrentQueries(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 64, MaxQueue: 256, QueueWait: 30 * time.Second})
	if err := s.RegisterProgram("tc", tcProgram); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSession("shared", tcFacts); err != nil {
		t.Fatal(err)
	}

	// Reference answer from one single-shot request.
	var ref queryResponse
	if code := post(t, ts.URL+"/v1/query", queryRequest{
		Program: "tc", Session: "shared", Predicates: []string{"tc"},
	}, &ref); code != 200 {
		t.Fatalf("reference query: status %d", code)
	}
	refText := ref.Relations["tc"].Text

	// Hold every request at the barrier until all 64 are in flight, so
	// the test exercises genuine concurrency, not accidental serialism.
	const n = 64
	var entered sync.WaitGroup
	entered.Add(n)
	release := make(chan struct{})
	hold := func() {
		entered.Done()
		<-release
	}
	s.testHold.Store(&hold)
	go func() {
		entered.Wait()
		if got := s.inflight.Load(); got < n {
			t.Errorf("only %d requests in flight at the barrier, want %d", got, n)
		}
		close(release)
	}()

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var qr queryResponse
			code := post(t, ts.URL+"/v1/query", queryRequest{
				Program: "tc", Session: "shared", Predicates: []string{"tc"},
			}, &qr)
			if code != 200 {
				errs <- fmt.Errorf("request %d: status %d", i, code)
				return
			}
			if got := qr.Relations["tc"].Text; got != refText {
				errs <- fmt.Errorf("request %d: answer %q != reference %q", i, got, refText)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var hz map[string]any
	if code := get(t, ts.URL+"/healthz", &hz); code != 200 || hz["status"] != "ok" {
		t.Fatalf("healthz: %d %+v", code, hz)
	}
	if code := get(t, ts.URL+"/readyz", &hz); code != 200 || hz["status"] != "ready" {
		t.Fatalf("readyz: %d %+v", code, hz)
	}
	s.Drain()
	// Liveness stays up while draining (the process is alive and
	// finishing in-flight work); readiness flips to 503 so load
	// balancers stop routing here.
	if code := get(t, ts.URL+"/healthz", &hz); code != 200 || hz["status"] != "draining" {
		t.Fatalf("healthz draining: %d %+v", code, hz)
	}
	if code := get(t, ts.URL+"/readyz", &hz); code != 503 || hz["reason"] != "draining" {
		t.Fatalf("readyz draining: %d %+v", code, hz)
	}
	var eb errorBody
	if code := post(t, ts.URL+"/v1/query", queryRequest{
		Source: tcProgram, Facts: tcFacts, Goal: "tc(a, X)",
	}, &eb); code != 503 {
		t.Fatalf("query while draining: status %d", code)
	}
}

func TestMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.RegisterProgram("tc", tcProgram); err != nil {
		t.Fatal(err)
	}
	var qr queryResponse
	post(t, ts.URL+"/v1/query", queryRequest{Program: "tc", Facts: tcFacts, Predicates: []string{"tc"}}, &qr)
	// Deleting edge(a, b) from a live view makes tc(a, b) and tc(a, c)
	// deletion candidates; tc(a, c) survives through edge(a, c).
	if code := post(t, ts.URL+"/v1/sessions", sessionRequest{Name: "s1", Facts: "edge(a, b). edge(b, c). edge(a, c)."}, nil); code != 200 {
		t.Fatalf("create session: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/sessions/s1/views", viewRequest{Name: "v1", Source: tcProgram}, nil); code != 200 {
		t.Fatalf("create view: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/sessions/s1/facts", factsRequest{Deletes: "edge(a, b)."}, nil); code != 200 {
		t.Fatalf("mutate: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		`idlogd_requests_total{endpoint="query",code="200"} 1`,
		`idlogd_request_duration_seconds_count{endpoint="query"} 1`,
		`idlogd_predicate_queries_total{predicate="tc"} 1`,
		`idlogd_predicate_tuples_total{predicate="tc"} 6`,
		"idlogd_derivations_total",
		"idlogd_tuples_total",
		"idlogd_uptime_seconds",
		"idlogd_worker_slots",
		"idlogd_plan_reorders_total",
		"idlogd_tuple_store_primary_collisions_total",
		"idlogd_tuple_store_secondary_collisions_total",
		"idlogd_facts_overdeleted_total 2\n",
		"idlogd_facts_rederived_total 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, gone := range []string{"idlogd_max_parallelism", "idlogd_parallel_queries_total"} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still expose the retired %q", gone)
		}
	}
}

func TestNotFoundRoute(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var eb errorBody
	if code := get(t, ts.URL+"/v1/nonsense", &eb); code != 404 || eb.Error.Code != "not_found" {
		t.Fatalf("unknown route: %d %+v", code, eb)
	}
}

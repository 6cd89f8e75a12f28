package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestProgramName(t *testing.T) {
	for in, want := range map[string]string{
		"tc.idl":                    "tc",
		"examples/programs/tc.idl":  "tc",
		"/abs/path/sample-dept.idl": "sample-dept",
		"noext":                     "noext",
	} {
		if got := programName(in); got != want {
			t.Errorf("programName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseFlags(t *testing.T) {
	dc, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-max-concurrent", "3", "-session-ttl", "1m",
		"-pprof", "127.0.0.1:0",
		"-facts", "a.facts", "-facts", "b.facts", "p1.idl", "p2.idl",
	}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if dc.addr != "127.0.0.1:0" || dc.server.MaxConcurrent != 3 || dc.server.SessionTTL != time.Minute {
		t.Fatalf("parsed config = %+v", dc)
	}
	if dc.pprofAddr != "127.0.0.1:0" {
		t.Fatalf("pprofAddr = %q", dc.pprofAddr)
	}
	if len(dc.factFiles) != 2 || len(dc.programFiles) != 2 {
		t.Fatalf("files = %v / %v", dc.factFiles, dc.programFiles)
	}
}

// TestBuildServerAndServe preloads a program file and a fact file, then
// round-trips a query over HTTP the way the daemon would serve it.
func TestBuildServerAndServe(t *testing.T) {
	dir := t.TempDir()
	progFile := filepath.Join(dir, "tc.idl")
	if err := os.WriteFile(progFile, []byte("tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- tc(X, Y), edge(Y, Z).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	factFile := filepath.Join(dir, "edges.facts")
	if err := os.WriteFile(factFile, []byte("edge(a, b). edge(b, c).\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	dc, err := parseFlags([]string{"-facts", factFile, "-session", "boot", progFile}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildServer(dc)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"program": "tc", "session": "boot", "predicates": []string{"tc"},
	})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	var qr struct {
		Relations map[string]struct {
			Text string `json:"text"`
		} `json:"relations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if got, want := qr.Relations["tc"].Text, "tc{(a, b), (a, c), (b, c)}"; got != want {
		t.Fatalf("tc = %q, want %q", got, want)
	}
}

// TestPlanCacheOnOffSameRows boots the daemon on the example
// transitive-closure program and graph, with and without -plan-cache,
// and sends the same goal query twice to each: all four answers carry
// the same rows, and only the caching daemon serves the second query
// from its plan cache.
func TestPlanCacheOnOffSameRows(t *testing.T) {
	goalRows := func(flags ...string) (rows []string, hits string) {
		args := append(flags, "-facts", "../../examples/programs/graph.facts", "../../examples/programs/tc.idl")
		dc, err := parseFlags(args, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		s, err := buildServer(dc)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		body := `{"program":"tc","session":"default","goal":"tc(a, X)"}`
		for range 2 {
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var qr struct {
				Rows json.RawMessage `json:"rows"`
			}
			err = json.NewDecoder(resp.Body).Decode(&qr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%v: query status %d, %v", flags, resp.StatusCode, err)
			}
			rows = append(rows, string(qr.Rows))
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		metrics, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(metrics), "\n") {
			if v, ok := strings.CutPrefix(line, "idlogd_plan_cache_hits_total "); ok {
				return rows, v
			}
		}
		t.Fatalf("%v: /metrics has no idlogd_plan_cache_hits_total", flags)
		return nil, ""
	}
	on, onHits := goalRows()
	off, offHits := goalRows("-plan-cache=false")
	if len(on[0]) < 3 || on[0] == "null" {
		t.Fatalf("tc(a, X) returned no rows: %s", on[0])
	}
	for i := range on {
		if on[i] != on[0] || off[i] != on[0] {
			t.Fatalf("rows differ: cache on %v, cache off %v", on, off)
		}
	}
	if onHits == "0" || offHits != "0" {
		t.Fatalf("plan cache hits: %s with the cache, %s without; want > 0 and 0", onHits, offHits)
	}
	t.Logf("rows %s; plan cache hits %s with the cache, %s without", on[0], onHits, offHits)
}

func TestBuildServerBadProgram(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.idl")
	if err := os.WriteFile(bad, []byte("p(x :- q(x).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dc, err := parseFlags([]string{bad}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildServer(dc); err == nil {
		t.Fatal("expected error for unparsable program")
	}
}

// TestBuildServerWAL boots the daemon with -wal, mutates the base
// database over HTTP, and verifies a second boot on the same WAL path
// replays the acknowledged state.
func TestBuildServerWAL(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "idlogd.wal")
	boot := func() *httptest.Server {
		dc, err := parseFlags([]string{"-wal", walPath, "-wal-checkpoint", "-1"}, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		s, err := buildServer(dc)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return ts
	}

	ts1 := boot()
	body, _ := json.Marshal(map[string]string{"inserts": "edge(a, b). edge(b, c)."})
	resp, err := http.Post(ts1.URL+"/v1/facts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation status %d", resp.StatusCode)
	}
	ts1.Close()

	ts2 := boot()
	q, _ := json.Marshal(map[string]any{
		"source":     "tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).",
		"predicates": []string{"tc"},
	})
	resp, err = http.Post(ts2.URL+"/v1/query", "application/json", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr struct {
		Relations map[string]struct {
			Tuples [][]string `json:"tuples"`
		} `json:"relations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if got := len(qr.Relations["tc"].Tuples); got != 3 {
		t.Fatalf("replayed tc has %d tuples, want 3: %+v", got, qr)
	}
}

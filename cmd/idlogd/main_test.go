package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// TestRemovedFlagIsUsageError checks that the retired
// -max-parallelism, -magic and -plan-cache flags are unknown flags:
// exit 2 before the daemon listens or loads anything.
func TestRemovedFlagIsUsageError(t *testing.T) {
	for _, args := range [][]string{{"-max-parallelism", "4"}, {"-magic=false"}, {"-plan-cache=false"}} {
		var stdout, stderr bytes.Buffer
		name, _, _ := strings.Cut(args[0], "=")
		if code := run(args, &stdout, &stderr); code != 2 ||
			!strings.Contains(stderr.String(), "flag provided but not defined: "+name) {
			t.Fatalf("%s: exit %d, want 2 (unknown flag):\n%s", strings.Join(args, " "), code, stderr.String())
		}
	}
}

// TestChaosPointNames checks that -chaos arms only the fault points the
// daemon consults: a misspelt or engine-only point is a usage error
// naming the accepted points, before anything loads.
func TestChaosPointNames(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"wal.append.write:count=1", true},
		{"wal.append.sync:after=100,err=EIO", true},
		{"repl.stream.send:after=2,count=2", true},
		{"repl.stream.delay:delay=1ms,delayonly", true},
		{"replica.connect", true},
		{"replica.stream.read:count=1", true},
		{"replica.apply:after=1", true},
		{"wal.apend.sync", false},
		{"core.derive:after=5", false},
		{"core.stratum", false},
		{"relation.oracle", false},
		{"wal.append.sync:bogus=1", false},
	} {
		var stderr bytes.Buffer
		dc, err := parseFlags([]string{"-chaos", tc.spec}, &stderr)
		if tc.ok {
			if err != nil || dc.server.Faults == nil {
				t.Errorf("-chaos %q: %v, want armed", tc.spec, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("-chaos %q accepted", tc.spec)
			continue
		}
		if code := run([]string{"-chaos", tc.spec}, io.Discard, io.Discard); code != 2 {
			t.Errorf("-chaos %q: exit %d, want 2", tc.spec, code)
		}
		if !strings.Contains(tc.spec, "bogus") && !strings.Contains(stderr.String(), "accepted: wal.append.write, wal.append.sync, repl.stream.send") {
			t.Errorf("-chaos %q: error does not list the accepted points:\n%s", tc.spec, stderr.String())
		}
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
// transitive-closure program and graph and sends the same goal query
// twice: both answers carry the rows of the full model's tc tuples
// from a, and the second query is served from the plan cache.
func TestPlanCacheOnOffSameRows(t *testing.T) {
	dc, err := parseFlags([]string{"-facts", "../../examples/programs/graph.facts", "../../examples/programs/tc.idl"}, os.Stderr)
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
	query := func(body string, out any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", body, resp.StatusCode, err)
		}
	}

	// The reference: the whole tc relation, its tuples from a.
	var model struct {
		Relations map[string]struct {
			Tuples [][]string `json:"tuples"`
		} `json:"relations"`
	}
	query(`{"program":"tc","session":"default","predicates":["tc"]}`, &model)
	var want [][]string
	for _, tup := range model.Relations["tc"].Tuples {
		if tup[0] == "a" {
			want = append(want, tup[1:])
		}
	}
	if len(want) < 3 {
		t.Fatalf("the model has %d tc tuples from a, want at least 3", len(want))
	}
	for i := range 2 {
		var qr struct {
			Rows [][]string `json:"rows"`
		}
		query(`{"program":"tc","session":"default","goal":"tc(a, X)"}`, &qr)
		if !reflect.DeepEqual(qr.Rows, want) {
			t.Fatalf("query %d: rows %v, want the model's %v", i, qr.Rows, want)
		}
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
	if !strings.Contains(string(metrics), "\nidlogd_plan_cache_hits_total 1\n") {
		t.Fatalf("want one plan cache hit in /metrics:\n%s", metrics)
	}
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

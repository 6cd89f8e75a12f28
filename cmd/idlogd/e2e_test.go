package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"idlog/internal/storage"
)

// TestMain lets a test run the daemon in a child process: the test
// binary re-executes itself with IDLOGD_TEST_MAIN_ARGS set and runs
// main on those arguments (see startDaemon).
func TestMain(m *testing.M) {
	if args := os.Getenv("IDLOGD_TEST_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"idlogd"}, strings.Fields(args)...)
		main()
	}
	os.Exit(m.Run())
}

// daemon is an idlogd child process listening on url.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *strings.Builder
	exited chan error
}

// startDaemon runs idlogd with the space-separated args (plus -addr
// 127.0.0.1:0) in a child process and waits for its listening line.
// The child is killed when the test ends, if it is still running.
func startDaemon(t *testing.T, args string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "IDLOGD_TEST_MAIN_ARGS=-addr 127.0.0.1:0 "+args)
	d := &daemon{cmd: cmd, stderr: &strings.Builder{}, exited: make(chan error, 1)}
	cmd.Stderr = d.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		select {
		case <-d.exited:
		default:
			_ = cmd.Process.Kill()
			<-d.exited
		}
	})
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "idlogd: listening on "); ok {
				listening <- strings.Fields(addr)[0]
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		d.exited <- cmd.Wait()
	}()
	select {
	case addr := <-listening:
		d.url = "http://" + addr
	case err := <-d.exited:
		d.exited <- err
		t.Fatalf("idlogd %s exited before listening (%v):\n%s", args, err, d.stderr)
	case <-time.After(30 * time.Second):
		t.Fatalf("idlogd %s did not listen within 30s:\n%s", args, d.stderr)
	}
	return d
}

// call sends body to path (POST, or GET when body is empty) and
// returns the status and response text.
func (d *daemon) call(t *testing.T, path, body string) (int, string) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(d.url + path)
	} else {
		resp, err = http.Post(d.url+path, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(text)
}

// ok is call that requires a 200 and decodes the response into out.
func (d *daemon) ok(t *testing.T, path, body string, out any) string {
	t.Helper()
	code, text := d.call(t, path, body)
	if code != http.StatusOK {
		t.Fatalf("%s %s: status %d, want 200:\n%s", path, body, code, text)
	}
	if out != nil {
		if err := json.Unmarshal([]byte(text), out); err != nil {
			t.Fatalf("%s: %v in %s", path, err, text)
		}
	}
	return text
}

// stop sends SIGTERM and waits for a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d.wait(t)
}

// wait requires the daemon to exit with status 0 within 30s.
func (d *daemon) wait(t *testing.T) {
	t.Helper()
	select {
	case err := <-d.exited:
		d.exited <- err
		if err != nil {
			t.Fatalf("idlogd exit: %v:\n%s", err, d.stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("idlogd did not exit within 30s of SIGTERM:\n%s", d.stderr)
	}
}

// TestEndToEndSmoke boots idlogd in a child process with a WAL, the
// example programs and their facts, and drives it over HTTP: exact
// predicate and goal answers, the sampling endpoint, the typed 429 and
// 400 errors, request and WAL counters, base-fact mutation, /readyz
// leaving 200 on SIGTERM with a clean exit, and WAL replay after a
// restart on the same log.
func TestEndToEndSmoke(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "idlogd.wal")
	const examples = "../../examples/programs/"
	d := startDaemon(t, "-wal "+walPath+" -facts "+examples+"graph.facts -facts "+examples+"emp.facts "+
		examples+"tc.idl "+examples+"select_two.idl")
	d.ok(t, "/healthz", "", nil)

	// Predicate query against the preloaded session: exact answer.
	type relations struct {
		Relations map[string]struct {
			Text string `json:"text"`
		} `json:"relations"`
	}
	var pr relations
	d.ok(t, "/v1/query", `{"program":"tc","session":"default","predicates":["tc"]}`, &pr)
	if got, want := pr.Relations["tc"].Text, "tc{(a, b), (a, c), (a, d), (a, e), (b, c), (b, d), (b, e), (c, d)}"; got != want {
		t.Fatalf("tc = %q, want %q", got, want)
	}

	// Goal query returns bindings.
	var gr struct {
		Vars []string   `json:"vars"`
		Rows [][]string `json:"rows"`
	}
	d.ok(t, "/v1/query", `{"program":"tc","session":"default","goal":"tc(a, X)"}`, &gr)
	if got, _ := json.Marshal(gr); string(got) != `{"vars":["X"],"rows":[["b"],["c"],["d"],["e"]]}` {
		t.Fatalf("tc(a, X) = %s", got)
	}

	// Sampling endpoint (§3.3): k=1 per department, seeded.
	var sr struct {
		Rows [][]string `json:"rows"`
		Text string     `json:"text"`
	}
	d.ok(t, "/v1/sample", `{"relation":"emp","arity":2,"group_by":[2],"k":1,"seed":42,"session":"default"}`, &sr)
	if len(sr.Rows) != 2 || sr.Rows[0][1] == sr.Rows[1][1] || sr.Text == "" {
		t.Fatalf("sample: want one employee from each of 2 departments and a text rendering, got %+v", sr)
	}

	// Typed errors: a budget-tripped request is 429 resource_exhausted,
	// a bad program is 400 parse_error.
	for _, c := range []struct {
		body, code string
		status     int
	}{
		{`{"program":"tc","session":"default","predicates":["tc"],"max_derivations":1}`, "resource_exhausted", http.StatusTooManyRequests},
		{`{"source":"p(x","goal":"p(X)"}`, "parse_error", http.StatusBadRequest},
	} {
		var eb struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		status, text := d.call(t, "/v1/query", c.body)
		if err := json.Unmarshal([]byte(text), &eb); err != nil || status != c.status || eb.Error.Code != c.code {
			t.Fatalf("%s: status %d, body %s; want %d %s", c.body, status, text, c.status, c.code)
		}
	}

	// Request counters.
	if m := d.ok(t, "/metrics", "", nil); !regexp.MustCompile(`(?m)^idlogd_requests_total\{endpoint="query",code="200"\} [1-9][0-9]*$`).MatchString(m) {
		t.Fatalf("/metrics has no query 200 counter:\n%s", m)
	}

	// Live mutation of the base database, then a re-query of it; both
	// mutations are appended to the WAL.
	for _, m := range [][2]string{
		{`{"inserts":"edge(m1, m2). edge(m2, m3)."}`, `"inserted":2`},
		{`{"deletes":"edge(m2, m3)."}`, `"deleted":1`},
	} {
		if text := d.ok(t, "/v1/facts", m[0], nil); !strings.Contains(text, m[1]) {
			t.Fatalf("%s: want %s in %s", m[0], m[1], text)
		}
	}
	const baseTC = `{"source":"tc(X, Y) :- edge(X, Y). tc(X, Z) :- tc(X, Y), edge(Y, Z).","predicates":["tc"]}`
	d.ok(t, "/v1/query", baseTC, &pr)
	if got := pr.Relations["tc"].Text; got != "tc{(m1, m2)}" {
		t.Fatalf("base tc after the mutations = %q, want tc{(m1, m2)}", got)
	}
	if m := d.ok(t, "/metrics", "", nil); !regexp.MustCompile(`(?m)^idlogd_wal_appends_total [1-9][0-9]*$`).MatchString(m) {
		t.Fatalf("/metrics shows no WAL append:\n%s", m)
	}

	// Readiness: 200 while serving; after SIGTERM it leaves 200 (503
	// while draining, or refused once the listener closes) and the
	// daemon exits cleanly.
	d.ok(t, "/readyz", "", nil)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := poll.Get(d.url + "/readyz")
		if err != nil {
			break // the listener is closed
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if resp.StatusCode != http.StatusOK || time.Now().After(deadline) {
			t.Fatalf("/readyz after SIGTERM: status %d, want 503 or a closed listener", resp.StatusCode)
		}
	}
	d.wait(t)
	if !strings.Contains(d.stderr.String(), "idlogd: draining") {
		t.Fatalf("no drain on SIGTERM:\n%s", d.stderr)
	}

	// WAL replay: a restart on the same log keeps the acknowledged
	// mutations.
	d = startDaemon(t, "-wal "+walPath)
	d.ok(t, "/v1/query", baseTC, &pr)
	if got := pr.Relations["tc"].Text; got != "tc{(m1, m2)}" {
		t.Fatalf("base tc after replay = %q, want tc{(m1, m2)}", got)
	}
	d.stop(t)
}

// TestDiskEngineCrashRestart runs idlogd on a bulk-loaded disk-engine
// data directory with a WAL checkpointing every two entries: three
// acknowledged inserts (the second checkpoints into a new segment
// generation, the third stays in the WAL tail), disk-engine metrics,
// then kill -9 and a restart on the same directory and WAL that still
// answers every acknowledged fact.
func TestDiskEngineCrashRestart(t *testing.T) {
	dir := t.TempDir()
	var facts strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&facts, "edge(n%d, n%d).\n", i, (i+1)%500)
	}
	factsPath := filepath.Join(dir, "big.facts")
	if err := os.WriteFile(factsPath, []byte(facts.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	data, walPath := filepath.Join(dir, "data"), filepath.Join(dir, "disk.wal")
	if _, err := storage.BulkLoadFile(data, factsPath); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, "-engine=disk -data-dir "+data+" -wal "+walPath+" -wal-checkpoint 2")
	for _, e := range []string{"edge(x1, x2).", "edge(x2, x3).", "edge(x3, x4)."} {
		d.ok(t, "/v1/facts", `{"inserts":"`+e+`"}`, nil)
	}
	_, metrics := d.call(t, "/metrics", "")
	if !regexp.MustCompile(`(?m)^idlogd_edb_tuples 50[0-9]$`).MatchString(metrics) {
		t.Fatalf("metrics lack idlogd_edb_tuples 50x:\n%s", metrics)
	}
	if !strings.Contains(metrics, "idlogd_storage_cache_hits_total") {
		t.Fatalf("metrics lack idlogd_storage_cache_hits_total:\n%s", metrics)
	}
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.exited <- <-d.exited // keep it for the cleanup

	d = startDaemon(t, "-engine=disk -data-dir "+data+" -wal "+walPath)
	body := d.ok(t, "/v1/query", `{"source":"hop(X, Z) :- edge(X, Y), edge(Y, Z).","predicates":["hop"]}`, nil)
	if !strings.Contains(body, "(x2, x4)") {
		t.Fatalf("hop after the restart lacks (x2, x4):\n%s", body)
	}
	d.stop(t)
}

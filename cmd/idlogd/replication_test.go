package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// fingerprint reads the daemon's replication state fingerprint.
func (d *daemon) fingerprint(t *testing.T) string {
	t.Helper()
	var st struct {
		Fingerprint string `json:"fingerprint"`
	}
	d.ok(t, "/v1/replication/status", "", &st)
	return st.Fingerprint
}

// waitSameState polls until the two daemons report one fingerprint.
func waitSameState(t *testing.T, primary, follower *daemon) {
	t.Helper()
	var p, f string
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if p, f = primary.fingerprint(t), follower.fingerprint(t); p == f {
			return
		}
	}
	t.Fatalf("no convergence: primary %s, follower %s\nprimary:\n%s\nfollower:\n%s", p, f, primary.stderr, follower.stderr)
}

// sessions lists the daemon's session names, joined by commas.
func (d *daemon) sessions(t *testing.T) string {
	t.Helper()
	var listing struct {
		Sessions []struct {
			Name string `json:"name"`
		} `json:"sessions"`
	}
	d.ok(t, "/v1/sessions", "", &listing)
	var names []string
	for _, s := range listing.Sessions {
		names = append(names, s.Name)
	}
	return strings.Join(names, ",")
}

// TestReplicationSmoke runs a primary and a follower as two daemons:
// the primary's stream sends die twice mid-frame, and the follower must
// reconnect past them, converge to the primary's fingerprint, report
// ready on /readyz and /metrics, and refuse writes. A dropped session
// leaves the follower too. Then the primary is killed hard and
// restarted on the same address and WAL: the drop survives the restart,
// and the follower catches up with the primary's next write.
func TestReplicationSmoke(t *testing.T) {
	dir := t.TempDir()
	pwal, fwal := filepath.Join(dir, "primary.wal"), filepath.Join(dir, "follower.wal")
	primary := startDaemon(t, "-wal "+pwal+" -chaos repl.stream.send:after=2,count=2")
	follower := startDaemon(t, "-wal "+fwal+" -follow "+primary.url+" -replica-lease 5s")

	// Traffic through the fault window: base facts and two sessions.
	primary.ok(t, "/v1/sessions", `{"name":"s1","facts":"emp(ann, sales)."}`, nil)
	primary.ok(t, "/v1/sessions", `{"name":"s2","facts":"emp(bob, dev)."}`, nil)
	for i := 1; i <= 30; i++ {
		primary.ok(t, "/v1/facts", fmt.Sprintf(`{"inserts":"edge(n%d, n%d)."}`, i, i+1), nil)
	}
	waitSameState(t, primary, follower)
	follower.ok(t, "/readyz", "", nil)
	if m := follower.ok(t, "/metrics", "", nil); !regexp.MustCompile(`(?m)^idlogd_replication_ready 1$`).MatchString(m) {
		t.Fatalf("follower /metrics does not report ready:\n%s", m)
	}
	if code, text := follower.call(t, "/v1/facts", `{"inserts":"edge(x, y)."}`); code != http.StatusForbidden {
		t.Fatalf("follower write: status %d, want 403: %s", code, text)
	}

	req, _ := http.NewRequest(http.MethodDelete, primary.url+"/v1/sessions/s2", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete s2: status %d", resp.StatusCode)
	}
	waitSameState(t, primary, follower)
	if got := follower.sessions(t); got != "s1" {
		t.Fatalf("follower sessions after the drop: %q, want s1", got)
	}

	// Failover drill: kill the primary hard and restart it on the same
	// address and WAL.
	if err := primary.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.exited <- <-primary.exited // keep it for the cleanup
	primary = startDaemon(t, "-addr "+strings.TrimPrefix(primary.url, "http://")+" -wal "+pwal)
	if got := primary.sessions(t); got != "s1" {
		t.Fatalf("primary sessions after the restart: %q, want s1", got)
	}
	primary.ok(t, "/v1/facts", `{"inserts":"edge(post, crash)."}`, nil)
	waitSameState(t, primary, follower)
	var qr struct {
		Relations map[string]struct {
			Text string `json:"text"`
		} `json:"relations"`
	}
	follower.ok(t, "/v1/query", `{"source":"q(X) :- edge(post, X).","predicates":["q"]}`, &qr)
	if got, _ := json.Marshal(qr); !strings.Contains(string(got), "q{(crash)}") {
		t.Fatalf("follower missed the post-restart write: %s", got)
	}
	follower.stop(t)
	primary.stop(t)
}

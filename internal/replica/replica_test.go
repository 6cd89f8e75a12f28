package replica_test

// Directed follower tests: catch-up, resume, torn streams, snapshot
// bootstrap, checkpoint racing a live stream, stalled-primary leases,
// drain, and primary failover. The randomized chaos suite is in
// chaos_test.go; both share the harness here.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"idlog/internal/fault"
	"idlog/internal/replica"
	"idlog/internal/server"
	"idlog/internal/wal"
)

// node is one idlogd instance under test: server + HTTP listener +
// (optionally) a WAL directory it can be restarted from.
type node struct {
	t   *testing.T
	srv *server.Server
	ts  *httptest.Server
	wal string
}

func startNode(t *testing.T, walPath string, cfg server.Config) *node {
	t.Helper()
	srv := server.New(cfg)
	if walPath != "" {
		if err := srv.OpenWAL(walPath); err != nil {
			t.Fatalf("open wal %s: %v", walPath, err)
		}
	}
	return &node{t: t, srv: srv, ts: httptest.NewServer(srv.Handler())}
}

// stop terminates the node. graceful drains first (streams end with a
// clean EOS); hard severs client connections mid-frame, like a crash.
func (n *node) stop(graceful bool) {
	if graceful {
		n.srv.Drain()
	} else {
		n.ts.CloseClientConnections()
	}
	n.ts.Close()
	n.srv.Close()
}

// insert posts facts to the base database (or session when named),
// reporting whether the mutation was acknowledged.
func (n *node) insert(session, facts string) bool {
	url := n.ts.URL + "/v1/facts"
	if session != "" {
		url = n.ts.URL + "/v1/sessions/" + session + "/facts"
	}
	body, _ := json.Marshal(map[string]string{"inserts": facts})
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

func (n *node) delete(session, facts string) bool {
	url := n.ts.URL + "/v1/facts"
	if session != "" {
		url = n.ts.URL + "/v1/sessions/" + session + "/facts"
	}
	body, _ := json.Marshal(map[string]string{"deletes": facts})
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

func (n *node) createSession(name string) bool {
	body, _ := json.Marshal(map[string]string{"name": name})
	resp, err := http.Post(n.ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// followerCfg are quick-reacting follower settings for tests.
func followerCfg(primaryURL string, faults *fault.Registry, logf func(string, ...any)) replica.Config {
	return replica.Config{
		Primary:    primaryURL,
		Lease:      2 * time.Second,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 200 * time.Millisecond,
		Faults:     faults,
		Logf:       logf,
	}
}

// waitConverged polls until the follower has applied the primary's last
// LSN and both state fingerprints agree. Mutations must be quiesced.
func waitConverged(t *testing.T, primary, follower *node, f *replica.Follower, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := f.Status()
		if st.AppliedLSN == primary.srv.LastLSN() &&
			primary.srv.StateFingerprint() == follower.srv.StateFingerprint() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no convergence within %s:\n  follower %+v\n  primary LSN %d\n  primary fp  %s\n  follower fp %s",
		timeout, f.Status(), primary.srv.LastLSN(),
		primary.srv.StateFingerprint(), follower.srv.StateFingerprint())
}

func TestBasicReplication(t *testing.T) {
	dir := t.TempDir()
	primary := startNode(t, filepath.Join(dir, "primary.wal"), server.Config{})
	defer primary.stop(true)

	if !primary.insert("", "edge(a, b). edge(b, c).") {
		t.Fatal("primary insert failed")
	}
	if !primary.createSession("s1") || !primary.insert("s1", "emp(ann, sales).") {
		t.Fatal("primary session setup failed")
	}

	follower := startNode(t, "", server.Config{ReadOnly: true})
	defer follower.stop(true)
	f := replica.New(follower.srv, followerCfg(primary.ts.URL, nil, t.Logf))
	f.Start()
	defer f.Stop()

	waitConverged(t, primary, follower, f, 5*time.Second)

	// Mutations after catch-up stream live, including deletes.
	primary.insert("", "edge(c, d).")
	primary.delete("", "edge(a, b).")
	primary.insert("s1", "emp(bob, dev).")
	waitConverged(t, primary, follower, f, 5*time.Second)

	// The follower is read-only for clients...
	body, _ := json.Marshal(map[string]string{"inserts": "edge(x, y)."})
	resp, err := http.Post(follower.ts.URL+"/v1/facts", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("follower mutation: status %d, want 403", resp.StatusCode)
	}
	// ...ready within its lag bound...
	if code := getJSON(t, follower.ts.URL+"/readyz", nil); code != 200 {
		t.Fatalf("follower readyz: %d", code)
	}
	// ...and serves reads: the replicated session answers queries.
	var qr struct {
		Relations map[string]struct {
			Text string `json:"text"`
		} `json:"relations"`
	}
	q, _ := json.Marshal(map[string]any{
		"source": "r(X) :- emp(X, Y).", "session": "s1", "predicates": []string{"emp"},
	})
	resp, err = http.Post(follower.ts.URL+"/v1/query", "application/json", bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&qr)
	resp.Body.Close()
	if qr.Relations["emp"].Text != "emp{(ann, sales), (bob, dev)}" {
		t.Fatalf("follower session read: %+v", qr.Relations)
	}
}

// TestFollowerResume: a follower with its own WAL restarts and resumes
// from its durable position — no snapshot resync needed.
func TestFollowerResume(t *testing.T) {
	dir := t.TempDir()
	primary := startNode(t, filepath.Join(dir, "primary.wal"), server.Config{})
	defer primary.stop(true)
	for i := 0; i < 5; i++ {
		primary.insert("", fmt.Sprintf("edge(n%d, n%d).", i, i+1))
	}

	fwal := filepath.Join(dir, "follower.wal")
	follower := startNode(t, fwal, server.Config{ReadOnly: true})
	f := replica.New(follower.srv, followerCfg(primary.ts.URL, nil, t.Logf))
	f.Start()
	waitConverged(t, primary, follower, f, 5*time.Second)
	f.Stop()
	follower.stop(false) // crash the follower

	// The primary moves on while the follower is down.
	for i := 5; i < 10; i++ {
		primary.insert("", fmt.Sprintf("edge(n%d, n%d).", i, i+1))
	}

	follower2 := startNode(t, fwal, server.Config{ReadOnly: true})
	defer follower2.stop(true)
	f2 := replica.New(follower2.srv, followerCfg(primary.ts.URL, nil, t.Logf))
	f2.Start()
	defer f2.Stop()
	waitConverged(t, primary, follower2, f2, 5*time.Second)
	if st := f2.Status(); st.Resyncs != 0 {
		t.Fatalf("resume took %d snapshot resyncs, want 0 (tail was long enough)", st.Resyncs)
	}
}

// TestStopDuringConnect: a Stop that lands after the loop has checked
// for it but before it opens a stream (here, inside an injected connect
// delay) must still return promptly. The primary heartbeats well within
// the lease, so a stream opened after Stop would otherwise run for as
// long as the primary lives.
func TestStopDuringConnect(t *testing.T) {
	dir := t.TempDir()
	primary := startNode(t, filepath.Join(dir, "primary.wal"), server.Config{ReplHeartbeat: 50 * time.Millisecond})
	defer primary.stop(true)
	follower := startNode(t, "", server.Config{ReadOnly: true})
	defer follower.stop(true)
	fFaults := fault.New()
	const delay = 300 * time.Millisecond
	fFaults.Arm(fault.ReplicaConnect, fault.Fault{DelayOnly: true, Delay: delay, Count: 1})
	f := replica.New(follower.srv, followerCfg(primary.ts.URL, fFaults, t.Logf))
	f.Start()
	for fFaults.Hits(fault.ReplicaConnect) == 0 { // the loop is inside the delay
		time.Sleep(time.Millisecond)
	}
	stopped := make(chan struct{})
	go func() {
		f.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(delay + 2*time.Second):
		t.Fatal("Stop did not return: the stream opened after it outlived it")
	}
}

// TestTornStreamReconnect: the primary's connection dies mid-frame; the
// follower discards the torn frame whole, reconnects, and converges.
func TestTornStreamReconnect(t *testing.T) {
	dir := t.TempDir()
	pFaults := fault.New()
	primary := startNode(t, filepath.Join(dir, "primary.wal"), server.Config{Faults: pFaults})
	defer primary.stop(true)
	primary.insert("", "edge(a, b).")

	follower := startNode(t, "", server.Config{ReadOnly: true})
	defer follower.stop(true)
	f := replica.New(follower.srv, followerCfg(primary.ts.URL, nil, t.Logf))
	f.Start()
	defer f.Stop()
	waitConverged(t, primary, follower, f, 5*time.Second)

	// The next two frames tear mid-send (half the bytes go out).
	pFaults.Arm(fault.ReplStreamSend, fault.Fault{Count: 2})
	for i := 0; i < 6; i++ {
		primary.insert("", fmt.Sprintf("edge(t%d, t%d).", i, i+1))
	}
	waitConverged(t, primary, follower, f, 10*time.Second)
	if got := pFaults.Fired(fault.ReplStreamSend); got != 2 {
		t.Fatalf("torn-send fault fired %d times, want 2", got)
	}
	if st := f.Status(); st.Reconnects == 0 {
		t.Fatalf("no reconnects recorded after torn stream: %+v", st)
	}
}

// TestSnapshotCatchup: a follower whose position predates the primary's
// retained tail bootstraps via snapshot+replay.
func TestSnapshotCatchup(t *testing.T) {
	dir := t.TempDir()
	// Tiny tail: 4 entries. Anything older forces the snapshot path.
	primary := startNode(t, filepath.Join(dir, "primary.wal"), server.Config{MaxReplLogEntries: 4})
	defer primary.stop(true)
	primary.createSession("s1")
	for i := 0; i < 20; i++ {
		primary.insert("", fmt.Sprintf("edge(n%d, n%d).", i, i+1))
		if i%3 == 0 {
			primary.insert("s1", fmt.Sprintf("emp(e%d, d%d).", i, i%2))
		}
	}
	primary.delete("", "edge(n0, n1). edge(n1, n2).")

	follower := startNode(t, "", server.Config{ReadOnly: true})
	defer follower.stop(true)
	f := replica.New(follower.srv, followerCfg(primary.ts.URL, nil, t.Logf))
	f.Start()
	defer f.Stop()
	waitConverged(t, primary, follower, f, 10*time.Second)
	if st := f.Status(); st.Resyncs == 0 {
		t.Fatalf("catch-up took no snapshot resync: %+v", st)
	}
}

// TestCheckpointRacesStream: checkpoint-and-truncate runs concurrently
// with a live replication stream and random follower kill points; the
// follower must converge after every combination (resync when its
// position was truncated away, plain tail otherwise).
func TestCheckpointRacesStream(t *testing.T) {
	dir := t.TempDir()
	fFaults := fault.New()
	// Aggressive checkpointing: every 4 entries the log is rewritten.
	primary := startNode(t, filepath.Join(dir, "primary.wal"),
		server.Config{WALCheckpointEntries: 4, MaxReplLogEntries: 8})
	defer primary.stop(true)
	primary.createSession("s1")

	follower := startNode(t, "", server.Config{ReadOnly: true})
	defer follower.stop(true)
	f := replica.New(follower.srv, followerCfg(primary.ts.URL, fFaults, t.Logf))
	f.Start()
	defer f.Stop()

	for round := 0; round < 8; round++ {
		// Kill the follower's stream read at a pseudo-random point in
		// this round's traffic; checkpoints fire underneath via the
		// entry threshold.
		fFaults.Arm(fault.ReplicaStreamRead, fault.Fault{After: (round * 7) % 11, Count: 1})
		for i := 0; i < 6; i++ {
			n := round*6 + i
			if !primary.insert("", fmt.Sprintf("edge(c%d, c%d).", n, n+1)) {
				t.Fatalf("round %d: insert %d not acknowledged", round, n)
			}
			if i%2 == 0 {
				primary.insert("s1", fmt.Sprintf("emp(r%d_%d, x).", round, i))
			}
		}
		if err := primary.srv.Checkpoint(); err != nil {
			t.Fatalf("round %d: checkpoint: %v", round, err)
		}
	}
	fFaults.DisarmAll()
	waitConverged(t, primary, follower, f, 15*time.Second)
}

// TestStalledPrimaryLease: a primary that stops sending frames loses
// the follower's lease — readiness drops, the watchdog severs the
// stream, and the follower recovers once the primary resumes.
func TestStalledPrimaryLease(t *testing.T) {
	dir := t.TempDir()
	pFaults := fault.New()
	primary := startNode(t, filepath.Join(dir, "primary.wal"),
		server.Config{Faults: pFaults, ReplHeartbeat: 50 * time.Millisecond})
	defer primary.stop(true)
	primary.insert("", "edge(a, b).")

	follower := startNode(t, "", server.Config{ReadOnly: true})
	defer follower.stop(true)
	cfg := followerCfg(primary.ts.URL, nil, t.Logf)
	cfg.Lease = 300 * time.Millisecond
	f := replica.New(follower.srv, cfg)
	f.Start()
	defer f.Stop()
	waitConverged(t, primary, follower, f, 5*time.Second)

	// Stall: every frame (heartbeats included) is delayed past the
	// lease. The follower must flip not-ready.
	pFaults.Arm(fault.ReplStreamDelay, fault.Fault{DelayOnly: true, Delay: 600 * time.Millisecond})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := f.Status(); !st.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower stayed ready under a stalled primary")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code := getJSON(t, follower.ts.URL+"/readyz", nil); code != 503 {
		t.Fatalf("readyz under stalled primary: %d, want 503", code)
	}
	// The watchdog keeps severing and the loop keeps reconnecting, but a
	// reconnect without a frame must not renew the lease.
	before := f.Status().Reconnects
	for stallEnd := time.Now().Add(time.Second); time.Now().Before(stallEnd); {
		if st := f.Status(); st.Ready {
			t.Fatalf("follower turned ready under a stalled primary: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if after := f.Status().Reconnects; after == before {
		t.Fatalf("no reconnect during the stall (reconnects = %d)", after)
	}

	pFaults.DisarmAll()
	primary.insert("", "edge(b, c).")
	waitConverged(t, primary, follower, f, 10*time.Second)
	deadline = time.Now().Add(5 * time.Second)
	for {
		if st := f.Status(); st.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never recovered readiness: %+v", f.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainEndsStreamWithEOS: a draining primary terminates replication
// streams with a clean EOS frame carrying a resumable LSN — no torn
// frames, no hung shutdown.
func TestDrainEndsStreamWithEOS(t *testing.T) {
	dir := t.TempDir()
	primary := startNode(t, filepath.Join(dir, "primary.wal"), server.Config{})
	defer func() { primary.ts.Close(); primary.srv.Close() }()
	primary.insert("", "edge(a, b). edge(b, c).")

	resp, err := http.Get(primary.ts.URL + "/v1/replication/stream?from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}

	done := make(chan error, 1)
	var last wal.Frame
	go func() {
		sr := wal.NewStreamReader(resp.Body)
		for {
			fr, err := sr.Next()
			if err != nil {
				done <- err
				return
			}
			last = fr
			if fr.Type == wal.FrameEOS {
				done <- nil
				return
			}
		}
	}()

	time.Sleep(100 * time.Millisecond) // let the entries flow
	primary.srv.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream did not end with EOS: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after drain")
	}
	if last.Type != wal.FrameEOS || last.LSN != primary.srv.LastLSN() {
		t.Fatalf("EOS frame %+v, want LSN %d", last, primary.srv.LastLSN())
	}
}

// TestPrimaryFailover: the primary is killed and restarted from its WAL
// under a new address and incarnation id; the retargeted follower
// detects the new incarnation, resyncs, and converges.
func TestPrimaryFailover(t *testing.T) {
	dir := t.TempDir()
	pwal := filepath.Join(dir, "primary.wal")
	primary := startNode(t, pwal, server.Config{})
	for i := 0; i < 5; i++ {
		primary.insert("", fmt.Sprintf("edge(n%d, n%d).", i, i+1))
	}

	follower := startNode(t, "", server.Config{ReadOnly: true})
	defer follower.stop(true)
	f := replica.New(follower.srv, followerCfg(primary.ts.URL, nil, t.Logf))
	f.Start()
	defer f.Stop()
	waitConverged(t, primary, follower, f, 5*time.Second)

	primary.stop(false) // crash the primary

	primary2 := startNode(t, pwal, server.Config{})
	defer primary2.stop(true)
	for i := 5; i < 8; i++ {
		primary2.insert("", fmt.Sprintf("edge(n%d, n%d).", i, i+1))
	}
	f.SetPrimary(primary2.ts.URL)
	waitConverged(t, primary2, follower, f, 10*time.Second)
}

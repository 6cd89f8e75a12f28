package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"io"
	"os"

	"idlog"
	"idlog/internal/fault"
	"idlog/internal/storage"
	"idlog/internal/wal"
)

func TestBaseFactsMutation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// The base database starts empty: a sessionless query sees nothing.
	var qr queryResponse
	code := post(t, ts.URL+"/v1/query", queryRequest{Source: tcProgram, Goal: "tc(a, X)"}, &qr)
	if code != 200 || len(qr.Rows) != 0 {
		t.Fatalf("empty base: status %d rows %d", code, len(qr.Rows))
	}

	var mr mutateResponse
	code = post(t, ts.URL+"/v1/facts", factsRequest{Inserts: tcFacts}, &mr)
	if code != 200 || mr.Inserted != 3 || mr.Deleted != 0 {
		t.Fatalf("base insert: status %d resp %+v", code, mr)
	}
	qr = queryResponse{}
	post(t, ts.URL+"/v1/query", queryRequest{Source: tcProgram, Goal: "tc(a, X)"}, &qr)
	if len(qr.Rows) != 3 {
		t.Fatalf("after base insert: %d rows, want 3", len(qr.Rows))
	}

	// Deletes apply before inserts; no-ops are excluded from the counts.
	mr = mutateResponse{}
	code = post(t, ts.URL+"/v1/facts", factsRequest{
		Inserts: "edge(c, d).", Deletes: "edge(a, b). edge(zz, zz)."}, &mr)
	if code != 200 || mr.Inserted != 0 || mr.Deleted != 1 {
		t.Fatalf("base mixed: status %d resp %+v", code, mr)
	}
	qr = queryResponse{}
	post(t, ts.URL+"/v1/query", queryRequest{Source: tcProgram, Goal: "tc(a, X)"}, &qr)
	if len(qr.Rows) != 0 {
		t.Fatalf("after deleting edge(a,b): %d rows, want 0", len(qr.Rows))
	}

	// Typed rejection: an empty mutation and a non-fact body.
	var eb errorBody
	if code := post(t, ts.URL+"/v1/facts", factsRequest{}, &eb); code != 400 {
		t.Fatalf("empty mutation: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/facts", factsRequest{Inserts: "p(X) :- q(X)."}, &eb); code != 400 {
		t.Fatalf("rule as fact: status %d", code)
	}
}

func TestLiveViewLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if code := post(t, ts.URL+"/v1/sessions", sessionRequest{Name: "s1", Facts: tcFacts}, nil); code != 200 {
		t.Fatalf("create session: status %d", code)
	}
	var vi viewInfo
	code := post(t, ts.URL+"/v1/sessions/s1/views", viewRequest{Name: "v1", Source: tcProgram}, &vi)
	if code != 200 || vi.Relations["tc"] != 6 {
		t.Fatalf("create view: status %d info %+v", code, vi)
	}

	// Query the view: relations served from the maintained model.
	var qr queryResponse
	code = post(t, ts.URL+"/v1/query", queryRequest{Session: "s1", View: "v1", Predicates: []string{"tc"}}, &qr)
	if code != 200 || len(qr.Relations["tc"].Tuples) != 6 {
		t.Fatalf("view query: status %d relations %+v", code, qr.Relations)
	}

	// A mutation maintains the view incrementally and reports per-view
	// stats in the acknowledgment.
	var mr mutateResponse
	code = post(t, ts.URL+"/v1/sessions/s1/facts", factsRequest{
		Inserts: "edge(d, e).", Deletes: "edge(a, b)."}, &mr)
	if code != 200 || len(mr.Views) != 1 {
		t.Fatalf("mutate: status %d resp %+v", code, mr)
	}
	vu := mr.Views[0]
	if vu.Name != "v1" || vu.Rebuilt || vu.Dropped || vu.FallbackFrom != -1 {
		t.Fatalf("view update: %+v", vu)
	}
	qr = queryResponse{}
	post(t, ts.URL+"/v1/query", queryRequest{Session: "s1", View: "v1", Predicates: []string{"tc"}}, &qr)
	got := qr.Relations["tc"].Text
	want := "{(b, c), (b, d), (b, e), (c, d), (c, e), (d, e)}"
	if !strings.Contains(got, "(b, e)") || strings.Contains(got, "(a,") {
		t.Fatalf("view after mutation: %s, want %s", got, want)
	}

	// The listing carries cumulative update stats.
	var listing struct {
		Views []viewInfo `json:"views"`
	}
	if code := get(t, ts.URL+"/v1/sessions/s1/views", &listing); code != 200 || len(listing.Views) != 1 {
		t.Fatalf("list views: status %d %+v", code, listing.Views)
	}
	if listing.Views[0].Updates.Deleted == 0 {
		t.Fatalf("cumulative stats missing deletions: %+v", listing.Views[0].Updates)
	}

	// Duplicate view names conflict; unknown view queries 404.
	if code := post(t, ts.URL+"/v1/sessions/s1/views", viewRequest{Name: "v1", Source: tcProgram}, nil); code != 409 {
		t.Fatalf("duplicate view: status %d", code)
	}
	if code := post(t, ts.URL+"/v1/query", queryRequest{Session: "s1", View: "nope", Predicates: []string{"tc"}}, nil); code != 404 {
		t.Fatalf("unknown view: status %d", code)
	}
}

// TestWALReplayRoundTrip: mutations to the base and to a session are
// durable across a restart — the replayed server answers identically.
func TestWALReplayRoundTrip(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "idlogd.wal")

	s1 := New(Config{})
	if err := s1.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	if code := post(t, ts1.URL+"/v1/facts", factsRequest{Inserts: tcFacts}, nil); code != 200 {
		t.Fatalf("base insert: status %d", code)
	}
	post(t, ts1.URL+"/v1/sessions", sessionRequest{Name: "s1"}, nil)
	if code := post(t, ts1.URL+"/v1/sessions/s1/facts", factsRequest{Inserts: "edge(x, y)."}, nil); code != 200 {
		t.Fatalf("session insert: status %d", code)
	}
	if code := post(t, ts1.URL+"/v1/facts", factsRequest{Deletes: "edge(b, c)."}, nil); code != 200 {
		t.Fatalf("base delete: status %d", code)
	}
	ts1.Close()
	s1.Close() // closes the WAL

	// "Restart": a fresh server over the same WAL path.
	s2 := New(Config{})
	if err := s2.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })

	var qr queryResponse
	post(t, ts2.URL+"/v1/query", queryRequest{Source: tcProgram, Predicates: []string{"edge"}}, &qr)
	if qr.Relations["edge"].Text != "edge{(a, b), (c, d)}" {
		t.Fatalf("replayed base edge = %s", qr.Relations["edge"].Text)
	}
	qr = queryResponse{}
	code := post(t, ts2.URL+"/v1/query", queryRequest{Source: tcProgram, Session: "s1", Predicates: []string{"edge"}}, &qr)
	if code != 200 || qr.Relations["edge"].Text != "edge{(x, y)}" {
		t.Fatalf("replayed session edge: status %d rel %s", code, qr.Relations["edge"].Text)
	}
}

// TestSessionDropDurable: DELETE /v1/sessions/{name} is a logged
// record, so a dropped session stays dropped after a restart on the
// same WAL, also when the drop follows a checkpoint that consolidated
// the session into the log.
func TestSessionDropDurable(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "idlogd.wal")
	s1 := New(Config{})
	if err := s1.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	for _, sr := range []sessionRequest{{Name: "gone", Facts: tcFacts}, {Name: "kept"}} {
		if code := post(t, ts1.URL+"/v1/sessions", sr, nil); code != 200 {
			t.Fatalf("create %s: status %d", sr.Name, code)
		}
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	del := func(url string) int {
		req, _ := http.NewRequest(http.MethodDelete, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(ts1.URL + "/v1/sessions/gone"); code != 200 {
		t.Fatalf("delete: status %d", code)
	}
	if code := del(ts1.URL + "/v1/sessions/gone"); code != 404 {
		t.Fatalf("second delete: status %d, want 404", code)
	}
	if code := post(t, ts1.URL+"/v1/sessions/gone/facts", factsRequest{Inserts: "edge(x, y)."}, nil); code != 404 {
		t.Fatalf("mutation of a dropped session: status %d, want 404", code)
	}
	ts1.Close()
	s1.Close()

	s2 := New(Config{})
	if err := s2.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	var listing struct {
		Sessions []sessionInfo `json:"sessions"`
	}
	if code := get(t, ts2.URL+"/v1/sessions", &listing); code != 200 || len(listing.Sessions) != 1 || listing.Sessions[0].Name != "kept" {
		t.Fatalf("sessions after restart: status %d %+v, want only kept", code, listing.Sessions)
	}
	if code := post(t, ts2.URL+"/v1/query", queryRequest{Source: tcProgram, Session: "gone", Goal: "tc(a, X)"}, nil); code != 404 {
		t.Fatalf("query on the dropped session after restart: status %d, want 404", code)
	}
}

// TestDropRacesMutations: mutations racing a drop of their session
// either land before the drop or get a 404, never a record after it —
// one would bring the session back on replay.
func TestDropRacesMutations(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "idlogd.wal")
	s1 := New(Config{WALCheckpointEntries: -1})
	if err := s1.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		name := fmt.Sprintf("r%d", round)
		if _, err := s1.sessions.create(name, idlog.NewDatabase()); err != nil {
			t.Fatal(err)
		}
		if _, e := s1.commit(&s1.state, wal.Record{Session: name}, local, budget{}); e != nil {
			t.Fatal(e)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					fact := idlog.Fact{Pred: "edge", Tuple: idlog.Ints(int64(g), int64(i))}
					_, e := s1.commit(&s1.state, wal.Record{Session: name, Inserts: []idlog.Fact{fact}}, local, budget{})
					if e != nil && e.status != http.StatusNotFound {
						t.Errorf("mutation racing a drop: %v", e)
					}
				}
			}()
		}
		if _, e := s1.commit(&s1.state, wal.Record{Session: name, Drop: true}, local, budget{}); e != nil {
			t.Fatal(e)
		}
		wg.Wait()
	}
	s1.Close()

	s2 := New(Config{})
	defer s2.Close()
	if err := s2.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	if n := s2.sessions.len(); n != 0 {
		t.Fatalf("%d dropped sessions came back on replay", n)
	}
}

// TestWALCrashRecovery is the crash-consistency contract: a mutation
// torn mid-append (an injected crash) is never acknowledged and
// never survives; every acknowledged mutation survives; the torn tail
// is rejected by CRC on restart and truncated away.
func TestWALCrashRecovery(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "idlogd.wal")

	// Arm the fault: the third append dies halfway through its write,
	// leaving a torn prefix of the record in the file.
	faults := fault.New()
	faults.Arm(fault.WALAppendWrite, fault.Fault{After: 2, Count: 1, Err: errors.New("simulated crash during append")})
	s1 := New(Config{Faults: faults})
	if err := s1.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}

	ts1 := httptest.NewServer(s1.Handler())
	if code := post(t, ts1.URL+"/v1/facts", factsRequest{Inserts: "edge(a, b)."}, nil); code != 200 {
		t.Fatalf("first mutation: status %d", code)
	}
	if code := post(t, ts1.URL+"/v1/facts", factsRequest{Inserts: "edge(b, c)."}, nil); code != 200 {
		t.Fatalf("second mutation: status %d", code)
	}
	// The third mutation crashes mid-append: a typed 503 with
	// Retry-After, no acknowledgment, and the in-memory snapshot must
	// NOT advance past the WAL.
	var eb errorBody
	if code := post(t, ts1.URL+"/v1/facts", factsRequest{Inserts: "edge(c, d)."}, &eb); code != 503 || eb.Error.Code != "wal_degraded" {
		t.Fatalf("torn mutation: status %d body %+v", code, eb)
	}
	var qr queryResponse
	post(t, ts1.URL+"/v1/query", queryRequest{Source: tcProgram, Predicates: []string{"edge"}}, &qr)
	if qr.Relations["edge"].Text != "edge{(a, b), (b, c)}" {
		t.Fatalf("unacknowledged mutation applied: %s", qr.Relations["edge"].Text)
	}
	// Degraded mode is sticky: the next mutation is refused up front
	// (503, same code) even though the fault fired only once, and reads
	// keep serving.
	eb = errorBody{}
	if code := post(t, ts1.URL+"/v1/facts", factsRequest{Inserts: "edge(d, e)."}, &eb); code != 503 || eb.Error.Code != "wal_degraded" {
		t.Fatalf("post-degrade mutation: status %d body %+v", code, eb)
	}
	if !s1.walDegraded.Load() {
		t.Fatal("server not marked degraded after WAL append failure")
	}
	var rz map[string]any
	if code := get(t, ts1.URL+"/readyz", &rz); code != 503 || rz["reason"] != "wal_degraded" {
		t.Fatalf("readyz while degraded: %d %+v", code, rz)
	}
	ts1.Close()
	s1.Close()

	// Restart: the torn entry must be truncated, the two acknowledged
	// mutations replayed — zero lost acknowledgments, zero partial
	// applications.
	l, recs, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 acknowledged", len(recs))
	}
	s2 := New(Config{})
	if err := s2.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	qr = queryResponse{}
	post(t, ts2.URL+"/v1/query", queryRequest{Source: tcProgram, Predicates: []string{"edge"}}, &qr)
	if qr.Relations["edge"].Text != "edge{(a, b), (b, c)}" {
		t.Fatalf("recovered state: %s", qr.Relations["edge"].Text)
	}
}

// TestWALCheckpoint: once the WAL passes the entry threshold it is
// truncated behind a durable snapshot plus consolidated session
// entries, and a restart reproduces the exact pre-checkpoint state.
func TestWALCheckpoint(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "idlogd.wal")

	s1 := New(Config{WALCheckpointEntries: 3})
	if err := s1.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	post(t, ts1.URL+"/v1/sessions", sessionRequest{Name: "s1"}, nil)
	for _, f := range []string{"edge(a, b).", "edge(b, c).", "edge(c, d)."} {
		if code := post(t, ts1.URL+"/v1/facts", factsRequest{Inserts: f}, nil); code != 200 {
			t.Fatalf("mutation %q failed", f)
		}
	}
	if code := post(t, ts1.URL+"/v1/sessions/s1/facts", factsRequest{Inserts: "edge(s, t)."}, nil); code != 200 {
		t.Fatal("session mutation failed")
	}
	// The third base mutation crossed the threshold: the WAL now holds
	// only the post-checkpoint entries (session consolidation + the
	// session insert), not the three base mutations.
	if got := s1.WAL().Entries(); got >= 3 {
		t.Fatalf("WAL holds %d entries after checkpoint, want < 3", got)
	}
	if db, err := idlog.LoadSnapshot(walPath + ".snapshot"); err != nil {
		t.Fatalf("checkpoint snapshot: %v", err)
	} else if db.Relation("edge").Len() != 3 {
		t.Fatalf("snapshot edge count = %d", db.Relation("edge").Len())
	}
	ts1.Close()
	s1.Close()

	s2 := New(Config{})
	if err := s2.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	var qr queryResponse
	post(t, ts2.URL+"/v1/query", queryRequest{Source: tcProgram, Predicates: []string{"edge"}}, &qr)
	if qr.Relations["edge"].Text != "edge{(a, b), (b, c), (c, d)}" {
		t.Fatalf("base after checkpoint restart: %s", qr.Relations["edge"].Text)
	}
	qr = queryResponse{}
	code := post(t, ts2.URL+"/v1/query", queryRequest{Source: tcProgram, Session: "s1", Predicates: []string{"edge"}}, &qr)
	if code != 200 || qr.Relations["edge"].Text != "edge{(s, t)}" {
		t.Fatalf("session after checkpoint restart: status %d rel %s", code, qr.Relations["edge"].Text)
	}
}

// TestWALFsyncErrorDegrades is the fsyncgate regression: an fsync error
// on append is a durability failure, so the mutation is NOT
// acknowledged, the server flips sticky read-only (503 + Retry-After on
// every further mutation), and readiness drops — while reads keep
// serving. After a restart, every acknowledged mutation is present; the
// un-acknowledged one may or may not survive (the entry bytes reached
// the file, the fsync promise did not), and either outcome is legal.
func TestWALFsyncErrorDegrades(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "idlogd.wal")
	reg := fault.New()
	s1 := New(Config{Faults: reg})
	if err := s1.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	if code := post(t, ts1.URL+"/v1/facts", factsRequest{Inserts: "edge(a, b)."}, nil); code != 200 {
		t.Fatalf("first mutation: status %d", code)
	}
	reg.Arm(fault.WALAppendSync, fault.Fault{Err: errors.New("fsync: disk I/O error")})

	var eb errorBody
	req, _ := json.Marshal(factsRequest{Inserts: "edge(b, c)."})
	resp, err := http.Post(ts1.URL+"/v1/facts", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != 503 || eb.Error.Code != "wal_degraded" {
		t.Fatalf("fsync-failed mutation: status %d body %+v", resp.StatusCode, eb)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 carries no Retry-After")
	}
	// The failed mutation must not be visible.
	var qr queryResponse
	post(t, ts1.URL+"/v1/query", queryRequest{Source: tcProgram, Predicates: []string{"edge"}}, &qr)
	if qr.Relations["edge"].Text != "edge{(a, b)}" {
		t.Fatalf("un-acked mutation visible: %s", qr.Relations["edge"].Text)
	}
	// Sticky: disarming the fault does not un-degrade a poisoned log.
	reg.DisarmAll()
	eb = errorBody{}
	if code := post(t, ts1.URL+"/v1/facts", factsRequest{Inserts: "edge(c, d)."}, &eb); code != 503 || eb.Error.Code != "wal_degraded" {
		t.Fatalf("mutation after disarm: status %d body %+v", code, eb)
	}
	var rz map[string]any
	if code := get(t, ts1.URL+"/readyz", &rz); code != 503 || rz["reason"] != "wal_degraded" {
		t.Fatalf("readyz while degraded: %d %+v", code, rz)
	}
	ts1.Close()
	s1.Close()

	// Restart re-validates the log: the acknowledged mutation is there.
	s2 := New(Config{})
	if err := s2.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	qr = queryResponse{}
	post(t, ts2.URL+"/v1/query", queryRequest{Source: tcProgram, Predicates: []string{"edge"}}, &qr)
	if !strings.Contains(qr.Relations["edge"].Text, "(a, b)") {
		t.Fatalf("acknowledged mutation lost after restart: %s", qr.Relations["edge"].Text)
	}
	if code := post(t, ts2.URL+"/v1/facts", factsRequest{Inserts: "edge(x, y)."}, nil); code != 200 {
		t.Fatalf("mutation after restart: status %d", code)
	}
}

// TestDiskEngineCheckpointRestart is TestWALCheckpoint for the disk
// engine: the checkpoint writes a segment-file generation into the data
// directory instead of a .snapshot file, a restart loads the base EDB
// disk-resident (WAL tail replayed on top), and /metrics exposes the
// storage gauges.
func TestDiskEngineCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "idlogd.wal")
	dataDir := filepath.Join(dir, "data")
	cfg := Config{
		WALCheckpointEntries: 3,
		Engine:               storage.Engine{Kind: storage.EngineDisk, Dir: dataDir, CacheBytes: 1 << 20},
	}

	s1 := New(cfg)
	if err := s1.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	for _, f := range []string{"edge(a, b).", "edge(b, c).", "edge(c, d)."} {
		if code := post(t, ts1.URL+"/v1/facts", factsRequest{Inserts: f}, nil); code != 200 {
			t.Fatalf("mutation %q failed", f)
		}
	}
	// The third mutation crossed the threshold: the checkpoint must have
	// written a manifest into the data dir, and no .snapshot file.
	if !storage.DirExists(dataDir) {
		t.Fatal("checkpoint left no segment manifest in the data dir")
	}
	if _, err := os.Stat(walPath + ".snapshot"); err == nil {
		t.Fatal("disk engine wrote a .snapshot file")
	}
	// A post-checkpoint mutation lands only in the WAL tail.
	if code := post(t, ts1.URL+"/v1/facts", factsRequest{Inserts: "edge(d, e)."}, nil); code != 200 {
		t.Fatal("post-checkpoint mutation failed")
	}
	ts1.Close()
	s1.Close()

	// Restart: checkpointed facts come back disk-resident; the tail
	// replays on top of them.
	s2 := New(cfg)
	if err := s2.OpenWAL(walPath); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	var qr queryResponse
	post(t, ts2.URL+"/v1/query", queryRequest{Source: tcProgram, Predicates: []string{"edge"}}, &qr)
	if qr.Relations["edge"].Text != "edge{(a, b), (b, c), (c, d), (d, e)}" {
		t.Fatalf("base after disk restart: %s", qr.Relations["edge"].Text)
	}
	// Queries ran against segment files: the storage metrics must show
	// cache traffic and the EDB gauge the restored tuple count.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"idlogd_edb_tuples 4",
		"idlogd_storage_cache_hits_total",
		"idlogd_storage_cache_misses_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

package server

import (
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
	if err := createSession(s, "live", tcFacts); err != nil {
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

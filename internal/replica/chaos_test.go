package replica_test

// The chaos harness: one primary and one follower (both WAL-backed)
// under a randomized schedule of torn streams, partitions, stalled
// frames, forced checkpoints, follower crashes/restarts, and primary
// crashes/restarts — with mutations flowing the whole time. After the
// dust settles the suite asserts the replication contract:
//
//  1. the follower's state fingerprint equals the primary's, and
//  2. every mutation the primary ACKNOWLEDGED is present — across any
//     combination of kills, partitions, and catch-up paths, no
//     acknowledged write is ever lost.
//
// Run with -race (CI does): the suite doubles as a concurrency test of
// the whole replication path.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"idlog/internal/fault"
	"idlog/internal/replica"
	"idlog/internal/server"
)

func TestChaos(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("chaos seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	dir := t.TempDir()
	pwal := filepath.Join(dir, "primary.wal")
	fwal := filepath.Join(dir, "follower.wal")
	pFaults := fault.New()
	fFaults := fault.New()

	// Small thresholds so checkpoints, tail trims, and snapshot
	// catch-ups all happen organically under the traffic below.
	pCfg := server.Config{
		Faults:               pFaults,
		WALCheckpointEntries: 16,
		MaxReplLogEntries:    24,
		ReplHeartbeat:        25 * time.Millisecond,
	}
	fCfg := server.Config{ReadOnly: true, WALCheckpointEntries: 16}

	primary := startNode(t, pwal, pCfg)
	follower := startNode(t, fwal, fCfg)
	fol := replica.New(follower.srv, replica.Config{
		Primary:    primary.ts.URL,
		Lease:      500 * time.Millisecond,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Faults:     fFaults,
		Logf:       t.Logf,
	})
	fol.Start()
	primary.createSession("s1")

	// acked tracks every fact the primary acknowledged; the final state
	// must contain all of them.
	type ackedFact struct{ session, fact string }
	var acked []ackedFact
	n := 0
	mutate := func() {
		n++
		if rng.Intn(4) == 0 {
			fact := fmt.Sprintf("emp(e%d, d%d)", n, n%3)
			if primary.insert("s1", fact+".") {
				acked = append(acked, ackedFact{"s1", fact})
			}
			return
		}
		fact := fmt.Sprintf("edge(n%d, n%d)", n, n+1)
		if primary.insert("", fact+".") {
			acked = append(acked, ackedFact{"", fact})
		}
	}

	const rounds = 25
	for round := 0; round < rounds; round++ {
		switch rng.Intn(8) {
		case 0: // torn stream: the primary's send dies mid-frame
			pFaults.Arm(fault.ReplStreamSend, fault.Fault{After: rng.Intn(4), Count: 1 + rng.Intn(2)})
		case 1: // partition: the follower cannot dial the primary
			fFaults.Arm(fault.ReplicaConnect, fault.Fault{Count: 1 + rng.Intn(3)})
		case 2: // partition mid-catch-up: stream reads die
			fFaults.Arm(fault.ReplicaStreamRead, fault.Fault{After: rng.Intn(6), Count: 1 + rng.Intn(2)})
		case 3: // slow primary: frames delayed (sometimes past the lease)
			pFaults.Arm(fault.ReplStreamDelay, fault.Fault{
				DelayOnly: true, Delay: time.Duration(rng.Intn(40)) * time.Millisecond, Count: 2 + rng.Intn(4)})
		case 4: // forced checkpoint racing the stream
			if err := primary.srv.Checkpoint(); err != nil {
				t.Fatalf("round %d: primary checkpoint: %v", round, err)
			}
		case 5: // follower crash + restart from its WAL
			fol.Stop()
			follower.stop(false)
			follower = startNode(t, fwal, fCfg)
			fol = replica.New(follower.srv, replica.Config{
				Primary:    primary.ts.URL,
				Lease:      500 * time.Millisecond,
				MinBackoff: 5 * time.Millisecond,
				MaxBackoff: 50 * time.Millisecond,
				Faults:     fFaults,
				Logf:       t.Logf,
			})
			fol.Start()
		case 6: // primary crash + restart from its WAL (new incarnation)
			primary.stop(rng.Intn(2) == 0) // sometimes graceful, sometimes not
			primary = startNodeAt(t, pwal, pCfg, primary.ts.URL)
		case 7: // quiet round: just traffic
		}
		for i, burst := 0, 2+rng.Intn(6); i < burst; i++ {
			mutate()
		}
		time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
	}

	// Let the dust settle: no more faults, no more mutations.
	pFaults.DisarmAll()
	fFaults.DisarmAll()
	waitConverged(t, primary, follower, fol, 30*time.Second)

	pFP, fFP := primary.srv.StateFingerprint(), follower.srv.StateFingerprint()
	if pFP != fFP {
		t.Fatalf("fingerprints diverged after settle: primary %s follower %s", pFP, fFP)
	}

	// No acknowledged mutation may be missing. Fingerprints are equal,
	// so checking the primary covers the follower too. The tuple text
	// is anchored by its opening paren, and every generated tuple is
	// unique, so containment is exact.
	relText := func(q string, pred string) string {
		var qr struct {
			Relations map[string]struct {
				Text string `json:"text"`
			} `json:"relations"`
		}
		resp, err := http.Post(primary.ts.URL+"/v1/query", "application/json", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		return qr.Relations[pred].Text
	}
	baseText := relText(`{"source": "r(X) :- edge(X, Y).", "predicates": ["edge"]}`, "edge")
	if baseText == "" {
		t.Fatal("edge relation missing entirely")
	}
	sessText := relText(`{"source": "r(X) :- emp(X, Y).", "session": "s1", "predicates": ["emp"]}`, "emp")
	baseCount, sessCount := 0, 0
	for _, af := range acked {
		tuple := af.fact[strings.Index(af.fact, "("):]
		if af.session == "" {
			baseCount++
			if !strings.Contains(baseText, tuple) {
				t.Fatalf("acknowledged base fact %s lost", af.fact)
			}
		} else {
			sessCount++
			if !strings.Contains(sessText, tuple) {
				t.Fatalf("acknowledged session fact %s lost", af.fact)
			}
		}
	}
	t.Logf("chaos done: %d mutations acknowledged (%d base, %d session), final LSN %d, follower resyncs %d reconnects %d",
		len(acked), baseCount, sessCount, primary.srv.LastLSN(), fol.Status().Resyncs, fol.Status().Reconnects)

	fol.Stop()
	follower.stop(true)
	primary.stop(true)
}

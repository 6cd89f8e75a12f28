// Package replica implements the follower half of idlogd's hot-standby
// replication: a retry loop that tails a primary's WAL stream over
// HTTP, applies every entry through the server's incremental mutation
// path, and falls back to snapshot+replay whenever its position
// predates what the primary still holds.
//
// The follower's local server runs read-only (server.Config.ReadOnly):
// clients may query it freely, but its state changes only through this
// loop, so a follower that has applied LSN L holds exactly the
// primary's state at L — evaluation is deterministic, equal EDBs mean
// equal models, and the chaos tests assert it by fingerprint.
//
// Failure handling:
//
//   - torn stream / dead connection / partition → capped exponential
//     backoff with jitter, then reconnect from the last applied LSN
//   - stream silent past the lease (stalled primary) → the lease
//     watchdog severs the connection and the loop reconnects; readiness
//     drops the moment the lease goes stale, before the watchdog fires,
//     and a reconnect alone does not restore it: the lease is renewed
//     only by frames (the primary opens every stream with a heartbeat)
//   - 409 snapshot_required, a RESYNC frame, a primary whose
//     incarnation id changed, or a primary whose LSN is behind ours
//     (restarted without history) → wholesale snapshot+replay resync
//   - EOS frame (primary draining) → clean end; reconnect and resume
//     from the LSN the frame carried
package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"idlog/internal/fault"
	"idlog/internal/server"
	"idlog/internal/wal"
)

// Config tunes a follower. Zero values take the documented defaults.
type Config struct {
	// Primary is the primary's base URL ("http://host:port").
	Primary string
	// Lease bounds how long the stream may stay silent before the
	// follower treats the primary as stalled: readiness drops and the
	// watchdog severs the connection. Must comfortably exceed the
	// primary's heartbeat cadence (server.Config.ReplHeartbeat).
	// Default 10s.
	Lease time.Duration
	// MaxLag is the readiness bound: a follower more than this many
	// entries behind the primary's last LSN reports not ready.
	// Default 1024.
	MaxLag uint64
	// MinBackoff/MaxBackoff bound the reconnect backoff (defaults
	// 100ms / 5s); jitter is added on top.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Client issues the HTTP requests (default: a client with no
	// overall timeout — streams are long-lived; the lease watchdog
	// bounds silence instead).
	Client *http.Client
	// Faults, when set, arms chaos injection on the connect/read/apply
	// path (see internal/fault).
	Faults *fault.Registry
	// Logf receives retry-loop diagnostics (default: discard).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 10 * time.Second
	}
	if c.MaxLag == 0 {
		c.MaxLag = 1024
	}
	if c.MinBackoff <= 0 {
		c.MinBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// errResync asks the caller to run a snapshot+replay resync.
var errResync = errors.New("replica: resync required")

// Follower tails one primary into a local (read-only) server. Create
// with New, start the loop with Start, stop it with Stop.
type Follower struct {
	srv *server.Server
	cfg Config

	mu            sync.Mutex
	primaryID     string
	appliedLSN    uint64
	primaryLSN    uint64
	lastBeat      time.Time
	connected     bool
	everConnected bool
	resyncs       uint64
	reconnects    uint64

	// ctx is the parent of every stream's context and halt cancels it:
	// once Stop has run, a stream that starts later ends at once.
	ctx  context.Context
	halt context.CancelFunc
	done chan struct{}
}

// New builds a follower feeding srv from cfg.Primary and registers its
// status as srv's follower probe (readiness + lag metrics).
func New(srv *server.Server, cfg Config) *Follower {
	cfg = cfg.withDefaults()
	f := &Follower{
		srv:  srv,
		cfg:  cfg,
		done: make(chan struct{}),
	}
	f.ctx, f.halt = context.WithCancel(context.Background())
	srv.SetFollowerProbe(f.Status)
	return f
}

// Start launches the replication loop. The follower resumes from the
// last LSN its local server holds (its own replayed WAL, when armed).
func (f *Follower) Start() {
	f.mu.Lock()
	f.appliedLSN = f.srv.LastLSN()
	f.mu.Unlock()
	go f.run()
}

// Stop terminates the loop and severs any in-flight stream, including
// one the loop is about to open.
func (f *Follower) Stop() {
	f.halt()
	<-f.done
}

// Status reports the follower's replication position and readiness:
// ready iff connected, the lease is fresh, and the applied LSN is
// within MaxLag of the primary's.
func (f *Follower) Status() server.FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := server.FollowerStatus{
		Connected:     f.connected,
		PrimaryID:     f.primaryID,
		AppliedLSN:    f.appliedLSN,
		PrimaryLSN:    f.primaryLSN,
		LastHeartbeat: f.lastBeat,
		Resyncs:       f.resyncs,
		Reconnects:    f.reconnects,
	}
	if f.primaryLSN > f.appliedLSN {
		st.LagEntries = f.primaryLSN - f.appliedLSN
	}
	switch {
	case !f.connected:
		st.Reason = "disconnected"
	case time.Since(f.lastBeat) > f.cfg.Lease:
		st.Reason = "lease_expired"
	case st.LagEntries > f.cfg.MaxLag:
		st.Reason = "lagging"
	default:
		st.Ready = true
	}
	return st
}

// run is the retry loop: connect, stream until something breaks, back
// off (capped exponential + jitter), repeat.
func (f *Follower) run() {
	defer close(f.done)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := f.cfg.MinBackoff
	for {
		if f.ctx.Err() != nil {
			return
		}
		progressed, err := f.runOnce()
		f.setConnected(false)
		if progressed || err == nil {
			backoff = f.cfg.MinBackoff
		}
		if err != nil {
			f.cfg.Logf("replica: stream ended: %v (retry in ~%s)", err, backoff)
		}
		wait := backoff + time.Duration(rng.Int63n(int64(backoff/2)+1))
		backoff *= 2
		if backoff > f.cfg.MaxBackoff {
			backoff = f.cfg.MaxBackoff
		}
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// runOnce is one connection attempt: probe the primary, resync when its
// incarnation changed or our position is impossible, then stream.
// progressed reports whether any frame was applied (resets backoff).
func (f *Follower) runOnce() (progressed bool, err error) {
	if err := f.cfg.Faults.Hit(fault.ReplicaConnect); err != nil {
		return false, err
	}
	ctx, primary := f.ctx, f.cfg.Primary
	f.mu.Lock()
	knownID := f.primaryID
	applied := f.appliedLSN
	f.mu.Unlock()

	id, primaryLSN, err := f.fetchStatus(ctx, primary)
	if err != nil {
		return false, err
	}
	f.mu.Lock()
	f.primaryLSN = primaryLSN
	f.primaryID = id
	f.mu.Unlock()

	// A changed incarnation id means the primary we knew is gone; a
	// primary whose LSN is BEHIND ours restarted without its history.
	// Either way our position lives in a dead LSN space: resync.
	if (knownID != "" && knownID != id) || applied > primaryLSN {
		if err := f.resync(ctx, primary); err != nil {
			return false, err
		}
		progressed = true
	}

	for {
		f.mu.Lock()
		from := f.appliedLSN + 1
		f.mu.Unlock()
		n, err := f.stream(ctx, primary, from)
		progressed = progressed || n > 0
		if errors.Is(err, errResync) {
			if rerr := f.resync(ctx, primary); rerr != nil {
				return progressed, rerr
			}
			progressed = true
			continue
		}
		return progressed, err
	}
}

// statusBody is the slice of /v1/replication/status the follower needs.
type statusBody struct {
	PrimaryID string `json:"primary_id"`
	LastLSN   uint64 `json:"last_lsn"`
}

func (f *Follower) fetchStatus(ctx context.Context, primary string) (string, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, primary+"/v1/replication/status", nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("replica: status probe: HTTP %d", resp.StatusCode)
	}
	var st statusBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", 0, fmt.Errorf("replica: status probe: %w", err)
	}
	if st.PrimaryID == "" {
		return "", 0, errors.New("replica: status probe: no primary id")
	}
	return st.PrimaryID, st.LastLSN, nil
}

// stream tails /v1/replication/stream from the given LSN, applying
// entries until the stream ends. n counts applied entries. errResync
// reports that the primary no longer covers our position.
func (f *Follower) stream(ctx context.Context, primary string, from uint64) (n int, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	url := fmt.Sprintf("%s/v1/replication/stream?from=%d", primary, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		io.Copy(io.Discard, resp.Body)
		return 0, errResync
	default:
		return 0, fmt.Errorf("replica: stream: HTTP %d", resp.StatusCode)
	}
	f.setConnected(true)

	// Lease watchdog: if no frame (entry OR heartbeat) arrives within
	// the lease, sever the connection so the blocked read returns and
	// the loop reconnects. Readiness goes stale independently, the
	// moment time.Since(lastBeat) exceeds the lease.
	watchdog := time.AfterFunc(f.cfg.Lease, func() {
		f.cfg.Logf("replica: lease expired with no frames; severing stream")
		cancel() // aborts the in-flight body read
	})
	defer watchdog.Stop()

	sr := wal.NewStreamReader(resp.Body)
	for {
		if err := f.cfg.Faults.Hit(fault.ReplicaStreamRead); err != nil {
			return n, err
		}
		fr, err := sr.Next()
		if err != nil {
			if err == io.EOF {
				// Closed between frames without EOS: the primary died or
				// the watchdog severed us. Reconnect.
				return n, errors.New("replica: stream closed without EOS")
			}
			return n, err
		}
		watchdog.Reset(f.cfg.Lease)
		switch fr.Type {
		case wal.FrameEntry:
			if err := f.cfg.Faults.Hit(fault.ReplicaApply); err != nil {
				return n, err
			}
			if err := f.srv.ApplyReplicated(fr.Rec); err != nil {
				return n, err
			}
			n++
			f.mu.Lock()
			f.appliedLSN = fr.Rec.LSN
			if fr.Rec.LSN > f.primaryLSN {
				f.primaryLSN = fr.Rec.LSN
			}
			f.lastBeat = time.Now()
			f.mu.Unlock()
		case wal.FrameHeartbeat:
			f.mu.Lock()
			f.primaryLSN = fr.LSN
			f.lastBeat = time.Now()
			f.mu.Unlock()
		case wal.FrameEOS:
			// Primary draining: clean end, resumable. Treat as a normal
			// disconnect (backoff resets because we made progress or the
			// end was clean).
			return n, nil
		case wal.FrameResync:
			return n, errResync
		default:
			return n, fmt.Errorf("replica: unexpected frame type %q", fr.Type)
		}
	}
}

// resync wholesale-replaces local state from the primary's snapshot
// stream: every entry frame up to EOS, installed at the EOS frame's
// LSN. Used when our position predates the primary's retained tail or
// lives in a dead incarnation's LSN space.
func (f *Follower) resync(ctx context.Context, primary string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, primary+"/v1/replication/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: snapshot: HTTP %d", resp.StatusCode)
	}
	sr := wal.NewStreamReader(resp.Body)
	var recs []wal.Record
	for {
		if err := f.cfg.Faults.Hit(fault.ReplicaStreamRead); err != nil {
			return err
		}
		fr, err := sr.Next()
		if err != nil {
			if err == io.EOF {
				return errors.New("replica: snapshot stream closed without EOS")
			}
			return err
		}
		switch fr.Type {
		case wal.FrameEntry:
			recs = append(recs, fr.Rec)
		case wal.FrameEOS:
			if err := f.srv.ResetReplicatedState(fr.LSN, recs); err != nil {
				return err
			}
			f.mu.Lock()
			f.appliedLSN = fr.LSN
			if fr.LSN > f.primaryLSN {
				f.primaryLSN = fr.LSN
			}
			f.lastBeat = time.Now()
			f.resyncs++
			f.mu.Unlock()
			f.cfg.Logf("replica: resynced from snapshot at LSN %d (%d records)", fr.LSN, len(recs))
			return nil
		default:
			return fmt.Errorf("replica: unexpected snapshot frame %q", fr.Type)
		}
	}
}

// setConnected flips the connection flag, counting reconnects. It
// leaves lastBeat alone: only a frame renews the lease.
func (f *Follower) setConnected(up bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if up && !f.connected {
		if f.everConnected {
			f.reconnects++
		}
		f.everConnected = true
	}
	f.connected = up
}

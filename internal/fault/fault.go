// Package fault is the one fault-injection mechanism of the engine, the
// WAL and replication. Components consult named fault points at the
// moments a real deployment fails — the evaluation before a derivation
// and on entering a stratum, the ID-relation oracle, the WAL before a
// write and before an fsync, the primary before sending a stream
// frame, the follower before dialing and around every stream read —
// and a test (or, for the WAL and replication points, the idlogd
// -chaos flag) arms those points with deterministic failure schedules:
// "fail the 3rd hit", "fail the next 2 hits with ENOSPC", "delay 50ms
// then fail every hit until disarmed".
//
// A fault point that is not armed costs one mutex acquisition and a
// map lookup on a registry that is usually nil-checked away entirely,
// so production paths pay nothing when chaos is off.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The fault points. Components hit these by name and tests arm them;
// idlogd -chaos accepts only the WAL, repl.* and replica.* points its
// process consults.
const (
	// WALAppendWrite fires inside wal.Log.Append before the entry is
	// written: a torn prefix reaches the file and the write errors, as
	// ENOSPC mid-write would.
	WALAppendWrite = "wal.append.write"
	// WALAppendSync fires after the entry is written but before the
	// fsync is acknowledged: the entry may be on disk, but durability
	// was never promised (fsync returned an error).
	WALAppendSync = "wal.append.sync"
	// ReplStreamSend fires on the primary before each stream frame is
	// sent: the connection drops mid-stream, possibly tearing a frame.
	ReplStreamSend = "repl.stream.send"
	// ReplStreamDelay fires on the primary before each frame with a
	// Delay armed: a slow or stalled primary.
	ReplStreamDelay = "repl.stream.delay"
	// ReplicaConnect fires on the follower before dialing the primary:
	// a network partition from the follower's side.
	ReplicaConnect = "replica.connect"
	// ReplicaStreamRead fires on the follower around each stream read:
	// the connection dies mid-entry (partition during catch-up).
	ReplicaStreamRead = "replica.stream.read"
	// ReplicaApply fires on the follower before applying a replicated
	// entry: a poisoned apply (the entry is NOT consumed).
	ReplicaApply = "replica.apply"
	// CoreDerive fires before each derivation of an evaluation or a
	// live view's maintenance pass: the engine panics, and the entry
	// point recovers it as an internal error. After n fires once
	// exactly n derivations have completed.
	CoreDerive = "core.derive"
	// CoreStratum fires on entry to each stratum: the run is canceled
	// as if by its caller. After n fires on entry to stratum n.
	CoreStratum = "core.stratum"
	// RelationOracle fires before each ID-relation materialization: the
	// oracle fails and the run ends with an internal error.
	RelationOracle = "relation.oracle"
)

// Fault is one armed failure schedule on a point.
type Fault struct {
	// After skips this many hits before the fault starts firing.
	After int
	// Count fires the fault this many times once started; 0 means
	// fire on every hit until disarmed.
	Count int
	// Err is returned by Hit when the fault fires. Nil fires with
	// ErrInjected.
	Err error
	// Delay is slept before every firing hit (slow/stalled component).
	// A Delay with a nil Err and Count 0 models pure slowness.
	DelayOnly bool
	Delay     time.Duration
}

// ErrInjected is the default error returned by a firing fault.
var ErrInjected = errors.New("fault: injected failure")

type point struct {
	fault Fault
	hits  int // total hits observed while armed
	fired int // times the fault has fired
}

// Registry holds named fault points. The zero value is NOT usable;
// call New. A nil *Registry is safe to hit (never fires), so
// components take an optional registry without nil checks at every
// site.
type Registry struct {
	mu     sync.Mutex
	points map[string]*point
	hits   map[string]int // hit counts survive disarm, for assertions
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{points: map[string]*point{}, hits: map[string]int{}}
}

// Arm installs f on the named point, replacing any previous schedule
// and resetting its counters.
func (r *Registry) Arm(name string, f Fault) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points[name] = &point{fault: f}
}

// DisarmAll removes every schedule (chaos-test cleanup between
// phases).
func (r *Registry) DisarmAll() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.points = map[string]*point{}
}

// Hit consults the named point: nil when the point is unarmed or the
// schedule does not fire on this hit, the armed error when it does.
// Delay-only schedules sleep and return nil. Safe on a nil registry.
func (r *Registry) Hit(name string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.hits != nil {
		r.hits[name]++
	}
	p, ok := r.points[name]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	p.hits++
	if p.hits <= p.fault.After {
		r.mu.Unlock()
		return nil
	}
	if p.fault.Count > 0 && p.fired >= p.fault.Count {
		r.mu.Unlock()
		return nil
	}
	p.fired++
	f := p.fault
	r.mu.Unlock()

	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.DelayOnly {
		return nil
	}
	if f.Err != nil {
		return fmt.Errorf("fault %s: %w", name, f.Err)
	}
	return fmt.Errorf("fault %s: %w", name, ErrInjected)
}

// Hits reports how many times the named point has been consulted since
// the registry was created (armed or not).
func (r *Registry) Hits(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[name]
}

// Fired reports how many times the named point's current schedule has
// fired (0 when unarmed).
func (r *Registry) Fired(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		return p.fired
	}
	return 0
}

// ParseSpec parses one idlogd -chaos specification of the form
//
//	point[:key=value[,key=value...]]
//
// with keys after=N, count=N, delay=DURATION, err=TEXT, delayonly.
// "repl.stream.send:after=5,count=1" partitions the stream once after
// five frames; "wal.append.sync:err=enospc" fails every fsync.
func ParseSpec(spec string) (name string, f Fault, err error) {
	name, opts, _ := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", Fault{}, fmt.Errorf("fault spec %q: empty point name", spec)
	}
	if opts == "" {
		return name, f, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		k, v, _ := strings.Cut(kv, "=")
		switch strings.TrimSpace(k) {
		case "after":
			if f.After, err = strconv.Atoi(v); err != nil {
				return "", Fault{}, fmt.Errorf("fault spec %q: bad after: %v", spec, err)
			}
		case "count":
			if f.Count, err = strconv.Atoi(v); err != nil {
				return "", Fault{}, fmt.Errorf("fault spec %q: bad count: %v", spec, err)
			}
		case "delay":
			if f.Delay, err = time.ParseDuration(v); err != nil {
				return "", Fault{}, fmt.Errorf("fault spec %q: bad delay: %v", spec, err)
			}
		case "err":
			f.Err = errors.New(v)
		case "delayonly":
			f.DelayOnly = true
		default:
			return "", Fault{}, fmt.Errorf("fault spec %q: unknown key %q", spec, k)
		}
	}
	return name, f, nil
}

// Command idlogd is the IDLOG query server: a long-lived daemon that
// compiles programs once at startup (or on registration) and serves
// queries over HTTP/JSON with per-request resource budgets, admission
// control, named database sessions, and Prometheus-style metrics.
//
// Usage:
//
//	idlogd [flags] [program.idl ...]
//
// Each positional argument is compiled and registered under its base
// name ("examples/programs/tc.idl" becomes program "tc"). More
// programs can be registered at runtime via POST /v1/programs.
//
//	-addr addr            listen address (default :8344)
//	-facts file           fact file(s) preloaded into the startup session (repeatable)
//	-load file.idb        binary snapshot preloaded into the startup session
//	-session name         name of the startup session (default "default")
//	-max-concurrent n     worker-pool size (default GOMAXPROCS)
//	-queue n              admission queue bound beyond the pool (default 64)
//	-queue-wait d         max time a request waits for a worker slot (default 5s)
//	-default-timeout d    per-request budget when none is given (default 10s)
//	-max-timeout d        clamp on requested per-request timeouts (default 60s)
//	-max-tuples n         default materialized-tuple budget (0 = none)
//	-max-derivations n    default derivation budget (0 = none)
//	-session-ttl d        evict sessions idle longer than this (default 15m)
//	-drain-timeout d      grace period for in-flight requests on shutdown (default 10s)
//	-wal file             write-ahead log for durable mutations; replayed
//	                      (together with file.snapshot, if present) on startup
//	-wal-checkpoint n     checkpoint-and-truncate the WAL every n entries
//	                      (default 1024; negative disables)
//	-follow url           run as a hot standby of the primary at url:
//	                      mutations are refused (403 read_only), state is
//	                      replicated over /v1/replication/stream, and
//	                      /readyz reflects catch-up. Pair with -wal so the
//	                      standby resumes from its position after restart.
//	-replica-lease d      max stream silence before the primary counts as
//	                      stalled: readiness drops and the follower
//	                      reconnects (default 10s)
//	-replica-max-lag n    readiness bound: more than n entries behind the
//	                      primary reports not ready (default 1024)
//	-chaos spec           arm a fault injection point (repeatable), e.g.
//	                      "wal.append.sync:after=100,err=EIO" or
//	                      "repl.stream.send:count=3". Only the WAL and
//	                      replication points this process consults are
//	                      accepted. For fault drills and the chaos
//	                      harness; never set in production.
//	-engine e             storage engine: mem (default) or disk. The disk
//	                      engine keeps the base EDB in segment files under
//	                      -data-dir behind a bounded block cache (EDBs
//	                      larger than RAM), loads it on startup (with the
//	                      WAL tail replayed on top), and checkpoints by
//	                      writing a new segment generation there.
//	-data-dir dir         disk-engine data directory
//	-cache-mb n           disk-engine block cache budget in MiB (default 64)
//	-pprof addr           serve net/http/pprof on a SEPARATE listener at
//	                      addr (e.g. localhost:6060); empty disables. Kept
//	                      off the query listener so profiling endpoints
//	                      are never exposed alongside the public API.
//
// SIGINT/SIGTERM triggers a graceful drain: readiness flips (/readyz
// answers 503; liveness at /healthz stays 200 and reports "draining"),
// evaluations that still arrive are refused, replication streams end
// with a resumable end-of-stream frame, and the listener closes at
// once, so a load balancer sees refused connections rather than a
// 503 window. In-flight requests get -drain-timeout to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"idlog"
	"idlog/internal/fault"
	"idlog/internal/replica"
	"idlog/internal/server"
	"idlog/internal/storage"
)

// daemonConfig is the parsed command line.
type daemonConfig struct {
	addr         string
	pprofAddr    string
	programFiles []string
	factFiles    []string
	loadSnap     string
	sessionName  string
	walPath      string
	drainTimeout time.Duration
	follow       string
	replicaLease time.Duration
	replicaLag   uint64
	server       server.Config
}

// chaosPoints are the fault points the daemon's own process consults:
// the WAL's and replication's. The engine's points are armed per run
// and no daemon path arms them.
var chaosPoints = []string{
	fault.WALAppendWrite, fault.WALAppendSync,
	fault.ReplStreamSend, fault.ReplStreamDelay,
	fault.ReplicaConnect, fault.ReplicaStreamRead, fault.ReplicaApply,
}

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

// Set implements flag.Value.
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// parseFlags parses args into a daemonConfig.
func parseFlags(args []string, stderr io.Writer) (*daemonConfig, error) {
	dc := &daemonConfig{}
	fs := flag.NewFlagSet("idlogd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&dc.addr, "addr", ":8344", "listen address")
	fs.StringVar(&dc.pprofAddr, "pprof", "", "serve net/http/pprof on a separate listener at this address (empty = off)")
	var factFiles stringList
	fs.Var(&factFiles, "facts", "fact file preloaded into the startup session (repeatable)")
	fs.StringVar(&dc.loadSnap, "load", "", "binary snapshot preloaded into the startup session")
	fs.StringVar(&dc.sessionName, "session", "default", "name of the startup session")
	fs.IntVar(&dc.server.MaxConcurrent, "max-concurrent", runtime.GOMAXPROCS(0), "worker-pool size")
	fs.IntVar(&dc.server.MaxQueue, "queue", 64, "admission queue bound beyond the pool")
	fs.DurationVar(&dc.server.QueueWait, "queue-wait", 5*time.Second, "max time a request waits for a worker slot")
	fs.DurationVar(&dc.server.DefaultTimeout, "default-timeout", 10*time.Second, "per-request budget when none is given")
	fs.DurationVar(&dc.server.MaxTimeout, "max-timeout", 60*time.Second, "clamp on requested per-request timeouts")
	fs.IntVar(&dc.server.DefaultMaxTuples, "max-tuples", 0, "default materialized-tuple budget (0 = none)")
	fs.IntVar(&dc.server.DefaultMaxDerivations, "max-derivations", 0, "default derivation budget (0 = none)")
	fs.DurationVar(&dc.server.SessionTTL, "session-ttl", 15*time.Minute, "evict sessions idle longer than this")
	fs.StringVar(&dc.walPath, "wal", "", "write-ahead log for durable mutations (replayed on startup)")
	fs.IntVar(&dc.server.WALCheckpointEntries, "wal-checkpoint", 1024, "checkpoint-and-truncate the WAL every n entries (negative disables)")
	fs.DurationVar(&dc.drainTimeout, "drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	fs.StringVar(&dc.follow, "follow", "", "run as a read-only hot standby of the primary at this URL")
	fs.DurationVar(&dc.replicaLease, "replica-lease", 10*time.Second, "max stream silence before the primary counts as stalled")
	fs.Uint64Var(&dc.replicaLag, "replica-max-lag", 1024, "readiness bound on entries behind the primary")
	var chaosSpecs stringList
	fs.Var(&chaosSpecs, "chaos", "arm a fault injection point, e.g. \"wal.append.sync:after=100,err=EIO\" (repeatable)")
	engine := fs.String("engine", "mem", "storage engine: mem (in-memory) or disk (segment files in -data-dir)")
	dataDir := fs.String("data-dir", "", "disk-engine data directory (with -engine=disk)")
	cacheMB := fs.Int("cache-mb", 64, "disk-engine block cache budget in MiB")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	kind, err := storage.ParseEngineKind(*engine)
	if err != nil {
		fmt.Fprintln(stderr, "idlogd:", err)
		return nil, err
	}
	if kind == storage.EngineDisk && *dataDir == "" {
		err := fmt.Errorf("-engine=disk requires -data-dir")
		fmt.Fprintln(stderr, "idlogd:", err)
		return nil, err
	}
	dc.server.Engine = storage.Engine{Kind: kind, Dir: *dataDir, CacheBytes: int64(*cacheMB) << 20}
	if len(chaosSpecs) > 0 {
		reg := fault.New()
		for _, spec := range chaosSpecs {
			name, f, err := fault.ParseSpec(spec)
			if err == nil && !slices.Contains(chaosPoints, name) {
				err = fmt.Errorf("-chaos %q: idlogd consults no fault point %q (accepted: %s)",
					spec, name, strings.Join(chaosPoints, ", "))
			}
			if err != nil {
				fmt.Fprintln(stderr, "idlogd:", err)
				return nil, err
			}
			reg.Arm(name, f)
		}
		dc.server.Faults = reg
	}
	if dc.follow != "" {
		// A standby never takes writes of its own: every mutation it
		// holds must have come from the primary's LSN stream.
		dc.server.ReadOnly = true
	}
	dc.factFiles = factFiles
	dc.programFiles = fs.Args()
	return dc, nil
}

// programName derives the registration name from a program path:
// the base name with its extension dropped.
func programName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// buildServer constructs the server and preloads programs, facts, and
// snapshots per the config.
func buildServer(dc *daemonConfig) (*server.Server, error) {
	s := server.New(dc.server)
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	for _, f := range dc.programFiles {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if err := s.RegisterProgram(programName(f), string(src)); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	if dc.loadSnap != "" || len(dc.factFiles) > 0 {
		db := idlog.NewDatabase()
		if dc.loadSnap != "" {
			loaded, err := storage.LoadFile(dc.loadSnap)
			if err != nil {
				return nil, err
			}
			db = loaded
		}
		for _, f := range dc.factFiles {
			src, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			if err := idlog.AddFactsText(db, string(src)); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
		}
		if err := s.CreateSessionDB(dc.sessionName, db); err != nil {
			return nil, err
		}
	}
	if dc.walPath != "" {
		// OpenWAL loads the engine's checkpoint if present — the
		// <wal>.snapshot file, or the disk engine's data directory —
		// superseding an empty base, replays surviving entries, and
		// keeps the log open for durable mutations.
		if err := s.OpenWAL(dc.walPath); err != nil {
			return nil, fmt.Errorf("wal %s: %w", dc.walPath, err)
		}
	} else if err := s.LoadDiskBase(); err != nil {
		return nil, fmt.Errorf("data dir %s: %w", dc.server.Engine.Dir, err)
	}
	ok = true
	return s, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	dc, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	s, err := buildServer(dc)
	if err != nil {
		fmt.Fprintln(stderr, "idlogd:", err)
		return 1
	}
	defer s.Close()

	ln, err := net.Listen("tcp", dc.addr)
	if err != nil {
		fmt.Fprintln(stderr, "idlogd:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: s.Handler()}

	if dc.pprofAddr != "" {
		// pprof gets its own listener and mux so the profiling surface
		// can be bound to loopback while the API listens publicly.
		pln, err := net.Listen("tcp", dc.pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "idlogd: pprof:", err)
			return 1
		}
		defer pln.Close()
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() { _ = http.Serve(pln, pmux) }()
		fmt.Fprintf(stdout, "idlogd: pprof on %s\n", pln.Addr())
	}

	var fol *replica.Follower
	if dc.follow != "" {
		fol = replica.New(s, replica.Config{
			Primary: dc.follow,
			Lease:   dc.replicaLease,
			MaxLag:  dc.replicaLag,
			Faults:  dc.server.Faults,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, "idlogd: replica: "+format+"\n", args...)
			},
		})
		fol.Start()
		fmt.Fprintf(stdout, "idlogd: following %s\n", dc.follow)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		fmt.Fprintln(stderr, "idlogd: draining")
		if fol != nil {
			fol.Stop()
		}
		s.Drain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), dc.drainTimeout)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(stdout, "idlogd: listening on %s (%d programs)\n", ln.Addr(), len(dc.programFiles))
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(stderr, "idlogd:", err)
		return 1
	}
	<-done
	return 0
}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idlog"
	"idlog/internal/fault"
	"idlog/internal/storage"
	"idlog/internal/wal"
)

// Config tunes the server. Zero values take the documented defaults.
type Config struct {
	// MaxConcurrent is the worker-pool size: the number of evaluations
	// allowed in flight at once (default: GOMAXPROCS). Each evaluation
	// runs on its request's goroutine, so this also bounds the
	// goroutines evaluating at once.
	MaxConcurrent int
	// MaxQueue bounds how many admitted requests may wait for a worker
	// slot beyond the pool (default 64). Requests beyond it are
	// rejected immediately with 429.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before a 429 (default 5s).
	QueueWait time.Duration
	// DefaultTimeout applies to requests that set no timeout
	// (default 10s); MaxTimeout clamps requested ones (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultMaxTuples / DefaultMaxDerivations apply to requests that
	// set no budget (default 0 = unlimited).
	DefaultMaxTuples      int
	DefaultMaxDerivations int
	// SessionTTL evicts sessions idle longer than this (default 15m).
	SessionTTL time.Duration
	// MaxPrograms / MaxSessions bound the registries (default 256 each).
	MaxPrograms int
	MaxSessions int
	// MaxViews bounds the live views per session (default 32).
	MaxViews int
	// MaxBodyBytes bounds request bodies (default 4 MiB).
	MaxBodyBytes int64
	// WALCheckpointEntries triggers a checkpoint-and-truncate once the
	// WAL holds this many entries (default 1024; negative disables
	// automatic checkpoints).
	WALCheckpointEntries int
	// ReadOnly refuses all client mutations (403): the follower mode of
	// a hot standby, whose state changes arrive only via replication.
	ReadOnly bool
	// ReplHeartbeat is the heartbeat cadence on replication streams
	// (default 3s). Followers treat a stream silent past their lease as
	// a stalled primary.
	ReplHeartbeat time.Duration
	// MaxReplLogEntries bounds the in-memory replication tail (default
	// 8192). Followers that fall behind the trimmed range catch up via
	// snapshot+replay.
	MaxReplLogEntries int
	// PrimaryID overrides the random replication incarnation id
	// (tests).
	PrimaryID string
	// Faults, when set, is the registry the server's WAL and
	// replication send path consult (see internal/fault); idlogd arms
	// it from -chaos. Nil means no injection.
	Faults *fault.Registry
	// Engine selects the storage engine for the base database. The zero
	// value is the in-memory engine; with EngineDisk, OpenWAL loads the
	// base EDB from segment files in Engine.Dir and Checkpoint writes a
	// new segment generation there instead of a <wal>.snapshot file.
	Engine storage.Engine
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.MaxPrograms <= 0 {
		c.MaxPrograms = 256
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxViews <= 0 {
		c.MaxViews = 32
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.WALCheckpointEntries == 0 {
		c.WALCheckpointEntries = 1024
	}
	if c.ReplHeartbeat <= 0 {
		c.ReplHeartbeat = 3 * time.Second
	}
	if c.MaxReplLogEntries <= 0 {
		c.MaxReplLogEntries = 8192
	}
	return c
}

// program is one registered, immutable compiled program.
type program struct {
	name string
	src  string
	prog *idlog.Program
}

// Server is the idlogd HTTP server state. Create with New, expose with
// Handler, stop background work with Close.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics

	// state holds the unnamed, never-evicted base database and the
	// session table; every change to it is a record applied by commit.
	// wal, when armed, makes every record durable. walMu orders commits
	// (read-locked around append+swap) against checkpoints, replication
	// snapshots and resyncs (write-locked).
	state
	wal   *wal.Log
	walMu sync.RWMutex

	// repl is the replication tail (LSN assignment, stream fan-out);
	// walDegraded flips once a WAL append fails — from then on the
	// server is read-only and mutations get 503 + Retry-After rather
	// than acknowledgments durability cannot back.
	repl           *replState
	walDegraded    atomic.Bool
	walDegradedMsg atomic.Pointer[string]
	followerProbe  atomic.Pointer[func() FollowerStatus]

	programsMu sync.RWMutex
	programs   map[string]*program

	// queries caches parsed ad-hoc programs and prepared goal queries.
	queries *queryCache

	slots    chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64
	draining atomic.Bool
	// drainCh closes when the server starts draining: long-lived
	// replication streams end with a resumable EOS frame instead of
	// hanging the HTTP shutdown.
	drainCh   chan struct{}
	drainOnce sync.Once

	janitorStop chan struct{}
	janitorDone chan struct{}

	// testHold, when set (tests only), runs while a worker slot is
	// held, letting tests pin the pool in a known-busy state.
	testHold atomic.Pointer[func()]
}

// New builds a server with cfg (zero values defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		metrics:     newMetrics(),
		state:       newState(cfg.MaxSessions),
		programs:    map[string]*program{},
		slots:       make(chan struct{}, cfg.MaxConcurrent),
		repl:        newReplState(cfg.PrimaryID, cfg.MaxReplLogEntries),
		drainCh:     make(chan struct{}),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		queries:     newQueryCache(),
	}
	s.sessions.evict = func(sess *session) bool {
		_, e := s.commit(&s.state, wal.Record{Session: sess.name, Drop: true}, local, budget{})
		return e == nil
	}
	s.mux = http.NewServeMux()
	s.route("POST /v1/programs", "programs", s.handleProgramCreate)
	s.route("GET /v1/programs", "programs", s.handleProgramList)
	s.route("POST /v1/query", "query", s.handleQuery)
	s.route("POST /v1/sample", "sample", s.handleSample)
	s.route("POST /v1/sessions", "sessions", s.handleSessionCreate)
	s.route("GET /v1/sessions", "sessions", s.handleSessionList)
	s.route("DELETE /v1/sessions/{name}", "sessions", s.handleSessionDelete)
	s.route("POST /v1/facts", "facts", s.handleBaseFacts)
	s.route("POST /v1/sessions/{name}/facts", "facts", s.handleSessionFacts)
	s.route("POST /v1/sessions/{name}/views", "views", s.handleViewCreate)
	s.route("GET /v1/sessions/{name}/views", "views", s.handleViewList)
	s.route("GET /v1/replication/status", "replication", s.handleReplStatus)
	s.route("GET /v1/replication/snapshot", "replication", s.handleReplSnapshot)
	s.route("GET /v1/replication/stream", "replication", s.handleReplStream)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /readyz", "readyz", s.handleReadyz)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("/", "other", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, apiErrorf(http.StatusNotFound, "not_found", "no route for %s %s", r.Method, r.URL.Path))
	})
	go s.janitor()
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the session janitor and closes the WAL, if armed. It
// does not wait for in-flight requests; use http.Server.Shutdown for
// that.
func (s *Server) Close() {
	s.Drain()
	close(s.janitorStop)
	<-s.janitorDone
	if s.wal != nil {
		_ = s.wal.Close()
	}
}

// Drain flips the server into draining mode: readiness fails so load
// balancers stop routing here, new evaluations are refused with 503
// while in-flight ones finish, and open replication streams terminate
// with a clean EOS frame carrying a resumable LSN.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// RegisterProgram compiles and registers src under name (used by
// cmd/idlogd to preload programs before listening).
func (s *Server) RegisterProgram(name, src string) error {
	prog, err := idlog.Parse(src)
	if err != nil {
		return err
	}
	s.programsMu.Lock()
	defer s.programsMu.Unlock()
	if _, ok := s.programs[name]; ok {
		return fmt.Errorf("program %q already registered", name)
	}
	if len(s.programs) >= s.cfg.MaxPrograms {
		return fmt.Errorf("program registry full (%d programs)", s.cfg.MaxPrograms)
	}
	s.programs[name] = &program{name: name, src: src, prog: prog}
	return nil
}

// CreateSessionDB registers a session around an existing database
// (e.g. a loaded snapshot). The database is frozen.
func (s *Server) CreateSessionDB(name string, db *idlog.Database) error {
	_, err := s.sessions.create(name, db)
	return err
}

// janitor evicts idle sessions until Close, each with a drop record. A
// read-only server evicts nothing: its sessions leave only on a
// replicated drop.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	period := s.cfg.SessionTTL / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			if s.cfg.ReadOnly {
				continue
			}
			if n := s.sessions.evictIdle(s.cfg.SessionTTL); n > 0 {
				s.metrics.sessionsEvicted.Add(uint64(n))
			}
		}
	}
}

// statusRecorder captures the written status for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers
// (replication) can push frames through the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route registers an instrumented handler: inflight gauge, request
// counter and latency histogram per endpoint, body-size limiting.
func (s *Server) route(pattern, endpoint string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(rec, r)
		s.inflight.Add(-1)
		s.metrics.observe(endpoint, rec.status, time.Since(start))
	})
}

// decode reads a JSON request body into v.
func decode(r *http.Request, v any) *apiError {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if err == io.EOF {
			return apiErrorf(http.StatusBadRequest, "invalid_argument", "empty request body")
		}
		return apiErrorf(http.StatusBadRequest, "invalid_argument", "bad request body: %v", err)
	}
	return nil
}

// admit acquires a worker slot under admission control, returning a
// release func, or a typed rejection when the pool and queue are full,
// the queue wait expires, the client goes away, or the server drains.
func (s *Server) admit(r *http.Request) (func(), *apiError) {
	if s.draining.Load() {
		return nil, apiErrorf(http.StatusServiceUnavailable, "unavailable", "server is draining")
	}
	release := func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		return release, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.metrics.admissionRejected.Add(1)
		return nil, apiErrorf(http.StatusTooManyRequests, "resource_exhausted",
			"admission queue full (%d waiting, %d in flight)", s.cfg.MaxQueue, s.cfg.MaxConcurrent)
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		return release, nil
	case <-timer.C:
		s.metrics.admissionRejected.Add(1)
		return nil, apiErrorf(http.StatusTooManyRequests, "resource_exhausted",
			"no worker slot within %s", s.cfg.QueueWait)
	case <-r.Context().Done():
		return nil, apiErrorf(statusClientClosed, "canceled", "client closed request while queued")
	}
}

// lookupProgram resolves a registered program by name.
func (s *Server) lookupProgram(name string) (*program, *apiError) {
	s.programsMu.RLock()
	p, ok := s.programs[name]
	s.programsMu.RUnlock()
	if !ok {
		return nil, apiErrorf(http.StatusNotFound, "not_found", "program %q not registered", name)
	}
	return p, nil
}

// resolveDB builds the request's database view: the session's frozen
// snapshot, optionally extended by ad-hoc facts into a request-private
// copy, or a fresh database from the facts alone. The returned release
// func MUST be called when the request finishes — it unpins the session
// so the idle janitor may evict it again (sessions are pinned for the
// request lifetime so a long evaluation cannot have its session reaped
// out from under it).
func (s *Server) resolveDB(sessionName, facts string) (*idlog.Database, func(), *apiError) {
	sess, e := s.lookupSession(sessionName, false)
	if e != nil {
		return nil, nil, e
	}
	sess.pin()
	db := sess.db.Load()
	if facts != "" {
		db = db.Thaw()
		if err := idlog.AddFactsText(db, facts); err != nil {
			sess.unpin()
			return nil, nil, fromEngineError(err)
		}
	}
	return db, sess.unpin, nil
}

// --- handlers ---

func (s *Server) handleProgramCreate(w http.ResponseWriter, r *http.Request) {
	var req programRequest
	if e := decode(r, &req); e != nil {
		writeError(w, e)
		return
	}
	if req.Name == "" || req.Source == "" {
		writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "name and source are required"))
		return
	}
	if err := s.RegisterProgram(req.Name, req.Source); err != nil {
		var ie *idlog.Error
		if errors.As(err, &ie) {
			writeError(w, fromEngineError(err))
			return
		}
		writeError(w, apiErrorf(http.StatusConflict, "already_exists", "%v", err))
		return
	}
	p, _ := s.lookupProgram(req.Name)
	writeJSON(w, http.StatusOK, describeProgram(p))
}

func (s *Server) handleProgramList(w http.ResponseWriter, r *http.Request) {
	s.programsMu.RLock()
	infos := make([]programInfo, 0, len(s.programs))
	for _, p := range s.programs {
		infos = append(infos, describeProgram(p))
	}
	s.programsMu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"programs": infos})
}

func describeProgram(p *program) programInfo {
	return programInfo{
		Name:    p.name,
		Strata:  p.prog.Strata(),
		Inputs:  p.prog.InputPredicates(),
		Outputs: p.prog.OutputPredicates(),
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if e := decode(r, &req); e != nil {
		writeError(w, e)
		return
	}
	if req.View != "" {
		s.serveViewQuery(w, &req)
		return
	}
	if (req.Program == "") == (req.Source == "") {
		writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "exactly one of program or source is required"))
		return
	}
	if (req.Goal == "") == (len(req.Predicates) == 0) {
		writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "exactly one of goal or predicates is required"))
		return
	}
	bud, e := s.parseBudget(req.budgetFields)
	if e != nil {
		writeError(w, e)
		return
	}

	var prog *idlog.Program
	var progKey string
	if req.Program != "" {
		p, e := s.lookupProgram(req.Program)
		if e != nil {
			writeError(w, e)
			return
		}
		prog, progKey = p.prog, "p:"+p.name
	} else {
		parsed, key, err := s.parsedProgram(req.Source)
		if err != nil {
			writeError(w, fromEngineError(err))
			return
		}
		prog, progKey = parsed, key
	}
	db, unpin, e := s.resolveDB(req.Session, req.Facts)
	if e != nil {
		writeError(w, e)
		return
	}
	defer unpin()

	release, e := s.admit(r)
	if e != nil {
		writeError(w, e)
		return
	}
	defer release()
	if h := s.testHold.Load(); h != nil {
		(*h)()
	}

	opts := bud.options()
	if req.Seed != nil {
		opts = append(opts, idlog.WithSeed(*req.Seed))
	}
	start := time.Now()
	if req.Goal != "" {
		// Goal parse, wrapper compile, and (per database version)
		// stratum planning are all cached.
		pq, err := s.preparedQuery(progKey, prog, req.Goal)
		if err != nil {
			writeError(w, fromEngineError(err))
			return
		}
		qr, err := pq.QueryContext(r.Context(), db, opts...)
		if qr != nil && qr.UsedMagic {
			s.metrics.magicQueries.Add(1)
		}
		resp := goalResponse(qr, time.Since(start))
		if err != nil {
			ae := fromEngineError(err)
			if req.Partial && qr != nil {
				resp.Incomplete = true
				ae.partial = resp
			}
			writeError(w, ae)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}

	res, err := prog.EvalContext(r.Context(), db, opts...)
	if res != nil {
		s.metrics.observeEval(res.Stats.Derivations, res.Stats.Inserted, res.Stats.TuplesScanned)
	}
	if err != nil {
		ae := fromEngineError(err)
		if req.Partial && res != nil && res.Incomplete {
			resp := predicatesResponse(res, req.Predicates, time.Since(start), nil)
			resp.Incomplete = true
			ae.partial = resp
		}
		writeError(w, ae)
		return
	}
	for _, p := range req.Predicates {
		if res.Relation(p) == nil {
			writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "unknown predicate %q", p))
			return
		}
	}
	writeJSON(w, http.StatusOK, predicatesResponse(res, req.Predicates, time.Since(start), s.metrics))
}

// goalResponse renders a goal query's bindings.
func goalResponse(qr *idlog.QueryResult, elapsed time.Duration) *queryResponse {
	resp := &queryResponse{ElapsedMS: float64(elapsed.Microseconds()) / 1000}
	if qr == nil {
		return resp
	}
	resp.Vars = qr.Vars
	holds := qr.Holds()
	resp.Holds = &holds
	resp.Rows = make([][]any, len(qr.Rows))
	for i, t := range qr.Rows {
		resp.Rows[i] = tupleJSON(t)
	}
	return resp
}

// predicatesResponse renders whole relations of a computed model. A
// nil metrics skips per-predicate accounting (partial responses).
func predicatesResponse(res *idlog.Result, preds []string, elapsed time.Duration, m *metrics) *queryResponse {
	resp := &queryResponse{
		Relations: map[string]relationJSON{},
		Stats:     statsOf(res.Stats),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}
	for _, p := range preds {
		rel := res.Relation(p)
		if rel == nil {
			continue
		}
		resp.Relations[p] = relationBody(rel)
		if m != nil {
			m.observePredicate(p, rel.Len())
		}
	}
	return resp
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	var req sampleRequest
	if e := decode(r, &req); e != nil {
		writeError(w, e)
		return
	}
	bud, e := s.parseBudget(req.budgetFields)
	if e != nil {
		writeError(w, e)
		return
	}
	db, unpin, e := s.resolveDB(req.Session, req.Facts)
	if e != nil {
		writeError(w, e)
		return
	}
	defer unpin()
	release, e := s.admit(r)
	if e != nil {
		writeError(w, e)
		return
	}
	defer release()
	if h := s.testHold.Load(); h != nil {
		(*h)()
	}

	spec := idlog.SampleSpec{Relation: req.Relation, Arity: req.Arity, GroupBy: req.GroupBy, K: req.K}
	start := time.Now()
	rel, err := idlog.SampleContext(r.Context(), spec, db, req.Seed, bud.options()...)
	if err != nil {
		writeError(w, fromEngineError(err))
		return
	}
	s.metrics.observePredicate(req.Relation, rel.Len())
	sorted := rel.Sorted()
	rows := make([][]any, len(sorted))
	for i, t := range sorted {
		rows[i] = tupleJSON(t)
	}
	writeJSON(w, http.StatusOK, sampleResponse{
		Rows:      rows,
		Text:      rel.String(),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if e := s.mutable(); e != nil {
		writeError(w, e)
		return
	}
	var req sessionRequest
	if e := decode(r, &req); e != nil {
		writeError(w, e)
		return
	}
	if req.Name == "" {
		writeError(w, apiErrorf(http.StatusBadRequest, "invalid_argument", "name is required"))
		return
	}
	var ins []idlog.Fact
	if req.Facts != "" {
		fs, err := idlog.ParseFacts(req.Facts)
		if err != nil {
			writeError(w, fromEngineError(err))
			return
		}
		ins = fs
	}
	sess, err := s.sessions.create(req.Name, idlog.NewDatabase())
	if err != nil {
		writeError(w, createError(err))
		return
	}
	// The create is a record, factless or not: without it the session
	// would vanish on restart and followers would never learn of it.
	if _, e := s.commit(&s.state, wal.Record{Session: req.Name, Inserts: ins}, local, budget{}); e != nil {
		s.sessions.drop(req.Name)
		writeError(w, e)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	sessions := s.sessions.list()
	infos := make([]sessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = sess.info()
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": infos})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if e := s.mutable(); e != nil {
		writeError(w, e)
		return
	}
	name := r.PathValue("name")
	if _, e := s.commit(&s.state, wal.Record{Session: name, Drop: true}, local, budget{}); e != nil {
		writeError(w, e)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// It stays 200 while draining or degraded — restarting a process that
// is alive but not ready only makes things worse. Routability belongs
// to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.programsMu.RLock()
	nprogs := len(s.programs)
	s.programsMu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"uptime_s": time.Since(s.metrics.start).Seconds(),
		"inflight": s.inflight.Load(),
		"queued":   s.queued.Load(),
		"programs": nprogs,
		"sessions": s.sessions.len(),
	})
}

// handleReadyz is readiness: should traffic be routed here? 503 while
// draining, while the WAL is degraded (writes would be refused), or —
// on a follower — while replication is disconnected, the lease is
// stale, or the applied LSN lags the primary beyond the bound.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	type notReady struct {
		reason string
		detail map[string]any
	}
	var nr *notReady
	switch {
	case s.draining.Load():
		nr = &notReady{reason: "draining"}
	case s.walDegraded.Load():
		detail := map[string]any{}
		if msg := s.walDegradedMsg.Load(); msg != nil {
			detail["wal_error"] = *msg
		}
		nr = &notReady{reason: "wal_degraded", detail: detail}
	default:
		if p := s.followerProbe.Load(); p != nil {
			st := (*p)()
			if !st.Ready {
				nr = &notReady{reason: st.Reason, detail: map[string]any{
					"applied_lsn": st.AppliedLSN,
					"primary_lsn": st.PrimaryLSN,
					"lag_entries": st.LagEntries,
				}}
			}
		}
	}
	if nr == nil {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
		return
	}
	body := map[string]any{"status": "not_ready", "reason": nr.reason}
	for k, v := range nr.detail {
		body[k] = v
	}
	writeJSON(w, http.StatusServiceUnavailable, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	gauges := map[string]float64{
		"idlogd_inflight_requests":   float64(s.inflight.Load()),
		"idlogd_queued_requests":     float64(s.queued.Load()),
		"idlogd_sessions_active":     float64(s.sessions.len()),
		"idlogd_worker_slots":        float64(s.cfg.MaxConcurrent),
		"idlogd_replication_streams": float64(s.metrics.replStreams.Load()),
	}
	if s.walDegraded.Load() {
		gauges["idlogd_wal_degraded"] = 1
	} else {
		gauges["idlogd_wal_degraded"] = 0
	}
	if st, ok := s.followerStatus(); ok {
		gauges["idlogd_replication_lag_entries"] = float64(st.LagEntries)
		if st.Ready {
			gauges["idlogd_replication_ready"] = 1
		} else {
			gauges["idlogd_replication_ready"] = 0
		}
	}
	edb := 0
	base := s.base.db.Load()
	for _, name := range base.Names() {
		edb += base.Relation(name).Len()
	}
	gauges["idlogd_edb_tuples"] = float64(edb)
	s.metrics.render(&b, gauges)
	if s.cfg.Engine.Disk() {
		hits, misses := s.cfg.Engine.Cache().Stats()
		writeCounter := func(name, help string, v uint64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
		}
		writeCounter("idlogd_storage_cache_hits_total", "Segment block reads served from the decoded-block cache.", hits)
		writeCounter("idlogd_storage_cache_misses_total", "Segment block reads that decoded from disk.", misses)
		fmt.Fprintf(&b, "# HELP idlogd_storage_cache_bytes Decoded segment blocks resident in the cache.\n# TYPE idlogd_storage_cache_bytes gauge\nidlogd_storage_cache_bytes %d\n",
			s.cfg.Engine.Cache().Bytes())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"idlog"
	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/magic"
	"idlog/internal/parser"
	"idlog/internal/server"
	"idlog/internal/wal"
)

// The two idlogd workloads. Both talk to server.New(...).Handler()
// behind a loopback httptest listener, closed loop: a client sends its
// next request only when the previous answer has arrived, as an
// application calling idlogd does.

const (
	sessionName = "s"
	// reachSource is the registered program the goals run against.
	reachSource = "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\nhop2(X, Z) :- edge(X, Y), edge(Y, Z).\n"
	// edgesSource is a program that derives nothing: the goal edge(X, Y)
	// against it lists a session's edges and evaluates nothing else.
	edgesSource = "unused(X) :- never(X).\n"
)

// serveBase is what the two server workloads share: the server, its
// listener, one HTTP client, the forest and the goals with their
// reference answers.
type serveBase struct {
	cfg    runConfig
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	forest *forest
	goals  []goal
	want   [][]string // per goal: sorted reference answer (reach, hop2)
	holds  []bool     // per goal: reference truth (ground)
	draws  []int      // the reader's sequence: goal indexes
	layerCounters

	// Traced pass only.
	shadow      *idlog.Database // in-process copy of the session
	prog        *idlog.Program
	progAST     *ast.Program
	prepared    map[string]*idlog.PreparedQuery
	metrics0    map[string]float64
	magicTried  int
	magicUsed   int
	evalMS      []float64
	handlerRead []time.Duration
	roundRead   []time.Duration
}

func (b *serveBase) start(cfg server.Config) {
	b.srv = server.New(cfg)
	b.ts = httptest.NewServer(b.srv.Handler())
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

func (b *serveBase) stop() {
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.ts != nil {
		b.ts.Close()
	}
	if b.srv != nil {
		b.srv.Close()
	}
	b.client, b.ts, b.srv = nil, nil, nil
}

// post sends one JSON request and returns the status, the body and the
// round-trip time (request written to body fully read).
func (b *serveBase) post(path string, req any) (int, []byte, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := b.client.Post(b.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(start), err
}

// mustPost is post for set-up calls: any non-200 is an error.
func (b *serveBase) mustPost(path string, req any) ([]byte, error) {
	code, out, _, err := b.post(path, req)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %d %s", path, code, out)
	}
	return out, nil
}

// goalAnswer is the part of a query response the checks read.
type goalAnswer struct {
	Rows      [][]any `json:"rows"`
	Holds     *bool   `json:"holds"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Relations map[string]struct {
		Tuples [][]any `json:"tuples"`
	} `json:"relations"`
}

func firstColumn(rows [][]any) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		if len(r) > 0 {
			out = append(out, fmt.Sprint(r[0]))
		}
	}
	return out
}

// prepareGoals builds the goals over chains [lo, hi), their reference
// answers by search over adj, and the Zipf-drawn request sequence.
func (b *serveBase) prepareGoals(rng *rand.Rand, lo, hi, goals, draws int, adj map[string][]string) {
	b.goals = forestGoals(rng, b.forest, lo, hi, goals)
	b.want = make([][]string, len(b.goals))
	b.holds = make([]bool, len(b.goals))
	for i, g := range b.goals {
		switch g.kind {
		case goalReach:
			b.want[i] = reachFrom(adj, g.from)
		case goalHop2:
			b.want[i] = twoSteps(adj, g.from)
		case goalGround:
			for _, v := range reachFrom(adj, g.from) {
				if v == g.to {
					b.holds[i] = true
				}
			}
		}
	}
	// Zipf(1.1) over the popularity ranks: the head of the distribution
	// fits idlogd's 256-entry prepared-query LRU and the tail does not.
	b.draws = zipfDraws(structRand("serve/draws"), 1.1, len(b.goals), draws)
}

func (b *serveBase) goalRequest(g goal) map[string]any {
	return map[string]any{"program": "reach", "session": sessionName, "goal": g.text}
}

// checkGoal compares a goal query's response with the reference.
func (b *serveBase) checkGoal(gi int, code int, body []byte) (*goalAnswer, error) {
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s: %d %s", b.goals[gi].text, code, body)
	}
	var ans goalAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return nil, fmt.Errorf("%s: %v", b.goals[gi].text, err)
	}
	g := b.goals[gi]
	if g.kind == goalGround {
		if ans.Holds == nil || *ans.Holds != b.holds[gi] {
			return &ans, fmt.Errorf("%s: holds=%v, reference search says %v", g.text, ans.Holds, b.holds[gi])
		}
		return &ans, nil
	}
	if got := firstColumn(ans.Rows); !sameStrings(got, b.want[gi]) {
		return &ans, fmt.Errorf("%s: %d rows, reference search %d", g.text, len(got), len(b.want[gi]))
	}
	return &ans, nil
}

// doGoal runs one goal query over the socket and checks it.
func (b *serveBase) doGoal(kind opKind, gi int) (opKind, time.Duration, error) {
	code, body, took, err := b.post("/v1/query", b.goalRequest(b.goals[gi]))
	if err != nil {
		return kind, took, err
	}
	_, err = b.checkGoal(gi, code, body)
	if b.tracing {
		b.roundRead = append(b.roundRead, took)
	}
	return kind, took, err
}

// sessionEdges lists the session's edge relation through a goal query.
func (b *serveBase) sessionEdges() (edgeSet, error) {
	out, err := b.mustPost("/v1/query", map[string]any{"source": edgesSource, "session": sessionName, "goal": "edge(X, Y)"})
	if err != nil {
		return nil, err
	}
	var ans goalAnswer
	if err := json.Unmarshal(out, &ans); err != nil {
		return nil, err
	}
	set := edgeSet{}
	for _, r := range ans.Rows {
		if len(r) == 2 {
			set[[2]string{fmt.Sprint(r[0]), fmt.Sprint(r[1])}] = true
		}
	}
	return set, nil
}

// scrapeMetrics reads the unlabelled counters and gauges of /metrics.
func (b *serveBase) scrapeMetrics() (map[string]float64, error) {
	resp, err := b.client.Get(b.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// beginServeTrace snapshots the server's counters and builds the
// in-process copy of the session that the layer replay evaluates over.
func (b *serveBase) beginServeTrace(facts string) error {
	b.startCounters()
	b.containerTime = map[string]time.Duration{}
	var err error
	if b.prog, err = idlog.Parse(reachSource); err != nil {
		return err
	}
	if b.metrics0, err = b.scrapeMetrics(); err != nil {
		return err
	}
	if b.progAST, err = parser.Program(reachSource); err != nil {
		return err
	}
	b.shadow = idlog.NewDatabase()
	if err := idlog.AddFactsText(b.shadow, facts); err != nil {
		return err
	}
	b.shadow.Freeze()
	b.prepared = map[string]*idlog.PreparedQuery{}
	return nil
}

// replayGoal replays a goal query: once through the handler with no
// socket, then layer by layer as Program.Prepare and PreparedQuery.Query
// would on a miss of every cache — wrapper parse, analysis, magic
// rewrite, analysis of the rewriting, evaluation.
func (b *serveBase) replayGoal(t *tracer, gi int) error {
	g := b.goals[gi]
	body, err := json.Marshal(b.goalRequest(g))
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	took := t.in("server.handler", func() { b.srv.Handler().ServeHTTP(rec, req) })
	ans, err := b.checkGoal(gi, rec.Code, rec.Body.Bytes())
	if err != nil {
		return fmt.Errorf("handler replay: %w", err)
	}
	b.handlerRead = append(b.handlerRead, took)
	b.evalMS = append(b.evalMS, ans.ElapsedMS)
	// The handler's own share is what is left of its span once the
	// evaluation time the response reports is taken off; the evaluation
	// itself is replayed below as core's.
	b.containerTime["server"] += time.Duration(ans.ElapsedMS * float64(time.Millisecond))

	ansClause, err := replayGoalParse(t, &b.layerCounters, g.text)
	if err != nil {
		return err
	}
	prog := &ast.Program{Clauses: append(append([]*ast.Clause{}, b.progAST.Clauses...), ansClause)}
	var info *analysis.Info
	t.in("analysis.analyze", func() { info, err = analysis.Analyze(prog) })
	if err != nil {
		return err
	}
	var rw *magic.Rewritten
	var merr error
	t.in("magic.rewrite", func() { rw, merr = magic.Rewrite(info, "ans") })
	b.magicTried++
	if merr == nil {
		b.magicUsed++
		t.in("analysis.analyze_rewritten", func() { info, err = analysis.Analyze(rw.Program) })
		if err != nil {
			return err
		}
	}
	res, err := replayEval(t, info, b.shadow, core.Options{}, false)
	if err != nil {
		return err
	}
	b.addStats(res.Stats)

	// The library's own prepared query for the goal, kept across the
	// traced pass: its plan cache hits while the database version stays
	// and misses after every mutation.
	pq := b.prepared[g.text]
	if pq == nil {
		if pq, err = b.prog.Prepare(g.text); err != nil {
			return err
		}
		b.prepared[g.text] = pq
	}
	t.in("diag.prepared_query", func() { _, err = pq.Query(b.shadow) })
	return err
}

// serveMetrics reduces the server-side observations of the traced pass.
func (b *serveBase) serveMetrics() (map[string]float64, error) {
	now, err := b.scrapeMetrics()
	if err != nil {
		return nil, err
	}
	d := func(name string) float64 { return now[name] - b.metrics0[name] }
	hits, misses := d("idlogd_plan_cache_hits_total"), d("idlogd_plan_cache_misses_total")
	m := map[string]float64{
		"server_handler_ms":         ms(percentile(b.handlerRead, 0.5)),
		"server_transport_ms":       ms(percentile(b.roundRead, 0.5) - percentile(b.handlerRead, 0.5)),
		"server_eval_ms":            median(b.evalMS),
		"server_prepared_hit_ratio": ratio(hits, hits+misses),
		"server_magic_ratio":        ratio(d("idlogd_magic_queries_total"), hits+misses),
		"server_admission_rejected": d("idlogd_admission_rejected_total"),
		"magic_applied_ratio":       ratio(float64(b.magicUsed), float64(b.magicTried)),
		"wal_checkpoints":           d("idlogd_wal_checkpoints_total"),
	}
	var pcHits, pcMisses uint64
	for _, pq := range b.prepared {
		h, mi := pq.CacheStats()
		pcHits, pcMisses = pcHits+h, pcMisses+mi
	}
	m["core_plancache_hit_ratio"] = ratio(float64(pcHits), float64(pcHits+pcMisses))
	return m, nil
}

// servePoint: read-only goal queries, two clients, one frozen session.
type servePoint struct {
	serveBase
	facts string
}

func newServePoint(cfg runConfig) *servePoint { return &servePoint{serveBase: serveBase{cfg: cfg}} }

// forestSizes are the session shape (chains × nodes, leaves per node)
// and the request counts (distinct goals, drawn requests) of the two
// server workloads. serve_mixed's session is the smaller one: its live
// view holds the whole closure and every write maintains it.
func forestSizes(smoke, mixed bool) (chains, nodes, leaves, goals, draws int) {
	switch {
	case smoke:
		return 8, 16, 2, 48, 60
	case mixed:
		return 32, 32, 3, 256, 2048
	}
	return 64, 64, 3, 1024, 2048
}

func (w *servePoint) setup() error {
	rng := subRand(w.cfg.seed, "serve_point")
	chains, nodes, leaves, goals, draws := forestSizes(w.cfg.sizes.smoke, false)
	w.forest = newForest(rng, chains, nodes, leaves)
	w.facts = w.forest.facts()
	w.prepareGoals(rng, 0, chains, goals, draws, w.forest.edges())
	w.start(server.Config{})
	if err := w.srv.RegisterProgram("reach", reachSource); err != nil {
		return err
	}
	_, err := w.mustPost("/v1/sessions", map[string]any{"name": sessionName, "facts": w.facts})
	return err
}

func (w *servePoint) streams() []*stream {
	return []*stream{{
		name: "query", clients: 2, n: len(w.draws), warm: len(w.draws) / 16,
		describe: func(i int) string { return "POST /v1/query " + w.goals[w.draws[i]].text },
		do:       func(i int) (opKind, time.Duration, error) { return w.doGoal(kindOp, w.draws[i]) },
	}}
}

func (w *servePoint) rewind() error          { return nil }
func (w *servePoint) finish() (int, []error) { return 0, nil }
func (w *servePoint) close()                 { w.stop() }

func (w *servePoint) beginTrace() error { return w.beginServeTrace(w.facts) }

func (w *servePoint) replay(t *tracer, _ *stream, i int) error { return w.replayGoal(t, w.draws[i]) }

func (w *servePoint) layerMetrics(t *tracer) (map[string]float64, error) { return w.serveMetrics() }

// serveMixed: one writer and one reader on one WAL-backed session with a
// live view.
type serveMixed struct {
	serveBase
	facts    string
	walDir   string
	walPath  string
	sites    []site
	writes   int
	model    edgeSet
	lastOp   int // index of the last writer operation applied, -1 before any
	watch    string
	wantView []string

	// Traced pass only.
	view        *idlog.LiveView
	scratch     *wal.Log
	factBytes   int
	logBytes0   int64
	appends     int
	overdeleted int
	rederived   int
	prevEntries int
	mutLat      []time.Duration
	checkpoints []int // indexes into mutLat
}

// site is where one four-step writer cycle works: a node of a writer
// chain, late in the chain so a cut below it stays small.
type site struct {
	chain, pos int
}

func newServeMixed(cfg runConfig) *serveMixed {
	return &serveMixed{serveBase: serveBase{cfg: cfg}, lastOp: -1}
}

// The live view's program: transitive closure plus one small watched
// relation, everything below the root of a reader chain.
func liveSource(root string) string {
	return "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\nwatch(Y) :- tc(" + root + ", Y).\n"
}

func (w *serveMixed) setup() error {
	rng := subRand(w.cfg.seed, "serve_mixed")
	chains, nodes, leaves, goals, draws := forestSizes(w.cfg.sizes.smoke, true)
	w.forest = newForest(rng, chains, nodes, leaves)
	w.facts = w.forest.facts()
	adj := w.forest.edges()
	// The writer mutates the first half of the chains and the reader
	// queries the second half, so every read has one right answer
	// whatever the writer has done so far.
	half := chains / 2
	w.prepareGoals(rng, half, chains, goals, draws, adj)
	nsites, cycles := 64, 25
	if w.cfg.sizes.smoke {
		nsites, cycles = 4, 2
	}
	for s := 0; s < nsites; s++ {
		w.sites = append(w.sites, site{chain: rng.Intn(half), pos: nodes*5/8 + (s*7)%(nodes/4)})
	}
	w.writes = 4 * nsites * cycles
	w.model = edgeSet{}
	for from, tos := range adj {
		for _, to := range tos {
			w.model[[2]string{from, to}] = true
		}
	}
	w.watch = w.forest.node(half+rng.Intn(chains-half), 0)
	w.wantView = reachFrom(adj, w.watch)

	var err error
	if w.walDir, err = os.MkdirTemp(w.cfg.outDir, "wal-"); err != nil {
		return err
	}
	w.walPath = filepath.Join(w.walDir, "idlogd.wal")
	w.start(server.Config{})
	if err := w.srv.OpenWAL(w.walPath); err != nil {
		return err
	}
	if err := w.srv.RegisterProgram("reach", reachSource); err != nil {
		return err
	}
	if err := w.srv.RegisterProgram("live", liveSource(w.watch)); err != nil {
		return err
	}
	if _, err := w.mustPost("/v1/sessions", map[string]any{"name": sessionName, "facts": w.facts}); err != nil {
		return err
	}
	_, err = w.mustPost("/v1/sessions/"+sessionName+"/views", map[string]any{"name": "v", "program": "live"})
	return err
}

// mutation is writer operation i: step i mod 4 at site (i/4) mod sites.
//
//	step 0: insert a skip edge over the next chain node and a private 3-chain
//	step 1: cut the chain edge the skip bypasses and one leaf, hang 2 new edges below the cut
//	step 2: undo step 1
//	step 3: undo step 0
//
// With the skip in place the cut overdeletes everything below it and
// rederives what the skip still reaches, so DRed's rederivation runs;
// after step 3 the session is back where it started.
func (w *serveMixed) mutation(i int) (ins, dels [][2]string) {
	k := (i / 4) % len(w.sites)
	s := w.sites[k]
	f := w.forest
	a, b, c := f.node(s.chain, s.pos), f.node(s.chain, s.pos+1), f.node(s.chain, s.pos+2)
	x, y, z := fmt.Sprintf("x%d", k), fmt.Sprintf("y%d", k), fmt.Sprintf("z%d", k)
	q, r := fmt.Sprintf("q%d", k), fmt.Sprintf("r%d", k)
	grow := [][2]string{{a, c}, {a, x}, {x, y}, {y, z}}
	cut := [][2]string{{a, b}, {b, f.leaf(s.chain, s.pos+1, 0)}}
	hang := [][2]string{{b, q}, {q, r}}
	switch i % 4 {
	case 0:
		return grow, nil
	case 1:
		return hang, cut
	case 2:
		return cut, hang
	default:
		return nil, grow
	}
}

func edgeFacts(es [][2]string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = edgeFact(e[0], e[1])
	}
	return strings.Join(parts, " ")
}

func mutationRequest(ins, dels [][2]string) map[string]any {
	req := map[string]any{}
	if len(ins) > 0 {
		req["inserts"] = edgeFacts(ins)
	}
	if len(dels) > 0 {
		req["deletes"] = edgeFacts(dels)
	}
	return req
}

// doWrite sends writer operation i and checks the acknowledgment
// against the model. Only one writer runs, in index order.
func (w *serveMixed) doWrite(i int) (opKind, time.Duration, error) {
	ins, dels := w.mutation(i)
	code, body, took, err := w.post("/v1/sessions/"+sessionName+"/facts", mutationRequest(ins, dels))
	if err != nil {
		return kindOp, took, err
	}
	if code != http.StatusOK {
		return kindOp, took, fmt.Errorf("mutation %d: %d %s", i, code, body)
	}
	// Acknowledged: from here on the model holds the write.
	w.lastOp = i
	wantIns, wantDel := w.model.apply(ins, dels)
	var ack struct {
		Inserted, Deleted int
		Views             []struct {
			Overdeleted, Rederived int
			Rebuilt, Dropped       bool
		}
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return kindOp, took, err
	}
	if ack.Inserted != wantIns || ack.Deleted != wantDel {
		return kindOp, took, fmt.Errorf("mutation %d: acknowledged +%d −%d, model says +%d −%d", i, ack.Inserted, ack.Deleted, wantIns, wantDel)
	}
	if len(ack.Views) != 1 || ack.Views[0].Rebuilt || ack.Views[0].Dropped {
		return kindOp, took, fmt.Errorf("mutation %d: live view not maintained incrementally: %s", i, body)
	}
	if w.tracing {
		w.mutLat = append(w.mutLat, took)
		if n := w.srv.WAL().Entries(); n < w.prevEntries {
			w.checkpoints = append(w.checkpoints, len(w.mutLat)-1)
			w.prevEntries = n
		} else {
			w.prevEntries = n
		}
	}
	return kindOp, took, nil
}

// doRead is reader operation i: a goal query, or every eighth time a
// read of the live view's watched relation.
func (w *serveMixed) doRead(i int) (opKind, time.Duration, error) {
	if i%8 != 7 {
		return w.doGoal(kindRead, w.draws[i])
	}
	code, body, took, err := w.post("/v1/query", map[string]any{"session": sessionName, "view": "v", "predicates": []string{"watch"}})
	if err != nil {
		return kindRead, took, err
	}
	if code != http.StatusOK {
		return kindRead, took, fmt.Errorf("view read: %d %s", code, body)
	}
	var ans goalAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return kindRead, took, err
	}
	if got := firstColumn(ans.Relations["watch"].Tuples); !sameStrings(got, w.wantView) {
		return kindRead, took, fmt.Errorf("view read: %d tuples, reference search %d", len(got), len(w.wantView))
	}
	return kindRead, took, nil
}

func (w *serveMixed) streams() []*stream {
	return []*stream{
		{
			name: "write", clients: 1, n: w.writes, warm: len(w.sites),
			describe: func(i int) string {
				ins, dels := w.mutation(i)
				return "POST /v1/sessions/s/facts +" + edgeFacts(ins) + " −" + edgeFacts(dels)
			},
			do: w.doWrite,
		},
		{
			name: "read", clients: 1, n: len(w.draws), warm: len(w.draws) / 16,
			describe: func(i int) string {
				if i%8 == 7 {
					return "POST /v1/query view v watch"
				}
				return "POST /v1/query " + w.goals[w.draws[i]].text
			},
			do: w.doRead,
		},
	}
}

// rewind finishes the four-step cycle the writer stopped in, untimed, so
// the next repetition starts from the session set-up built.
func (w *serveMixed) rewind() error {
	for w.lastOp >= 0 && w.lastOp%4 != 3 {
		if _, _, err := w.doWrite(w.lastOp + 1); err != nil {
			return err
		}
	}
	return nil
}

// finish checks what only the end state can show: the session holds
// exactly the model's edges, closure below a mutated chain's root is what
// a search of the model finds, and a fresh server that re-opens the WAL
// and its checkpoint recovers every acknowledged write.
func (w *serveMixed) finish() (int, []error) {
	var failures []error
	got, err := w.sessionEdges()
	if err != nil {
		failures = append(failures, err)
	} else if d := w.model.diff(got); d != "" {
		failures = append(failures, fmt.Errorf("session differs from the model of acknowledged writes: %s", d))
	}

	root := w.forest.node(w.sites[0].chain, 0)
	out, err := w.mustPost("/v1/query", map[string]any{"program": "reach", "session": sessionName, "goal": "tc(" + root + ", Y)"})
	var ans goalAnswer
	if err == nil {
		err = json.Unmarshal(out, &ans)
	}
	if err != nil {
		failures = append(failures, err)
	} else if want := reachFrom(w.model.adjacency(), root); !sameStrings(firstColumn(ans.Rows), want) {
		failures = append(failures, fmt.Errorf("tc(%s, Y): %d rows, search of the model %d", root, len(ans.Rows), len(want)))
	}

	w.stop()
	w.start(server.Config{})
	if err := w.srv.OpenWAL(w.walPath); err != nil {
		failures = append(failures, fmt.Errorf("restart: %w", err))
	} else if got, err := w.sessionEdges(); err != nil {
		failures = append(failures, fmt.Errorf("restart: %w", err))
	} else if d := w.model.diff(got); d != "" {
		failures = append(failures, fmt.Errorf("restart lost or invented acknowledged writes: %s", d))
	}
	return 3, failures
}

func (w *serveMixed) close() {
	w.stop()
	if w.scratch != nil {
		w.scratch.Close()
	}
	if w.walDir != "" {
		os.RemoveAll(w.walDir)
	}
}

func (w *serveMixed) beginTrace() error {
	if err := w.beginServeTrace(w.facts); err != nil {
		return err
	}
	live, err := idlog.Parse(liveSource(w.watch))
	if err != nil {
		return err
	}
	if w.view, err = live.NewLiveView(w.shadow); err != nil {
		return err
	}
	if w.scratch, _, err = wal.Open(filepath.Join(w.walDir, "scratch.wal")); err != nil {
		return err
	}
	w.logBytes0 = w.scratch.Size()
	w.prevEntries = w.srv.WAL().Entries()
	return nil
}

func toFacts(es [][2]string) []idlog.Fact {
	out := make([]idlog.Fact, len(es))
	for i, e := range es {
		out[i] = idlog.Fact{Pred: "edge", Tuple: idlog.Strs(e[0], e[1])}
	}
	return out
}

func (w *serveMixed) replay(t *tracer, s *stream, i int) error {
	if s.name == "read" {
		if i%8 == 7 {
			return nil // a view read evaluates nothing: there is no layer to replay
		}
		return w.replayGoal(t, w.draws[i])
	}
	// A mutation: parse the fact text, apply it to the snapshot,
	// maintain the live view, append to a log and fsync.
	ins, dels := w.mutation(i)
	text := edgeFacts(ins) + " " + edgeFacts(dels)
	var err error
	t.in("parser.parse_facts", func() { _, err = idlog.ParseFacts(text) })
	if err != nil {
		return err
	}
	w.parsedBytes += len(text)
	w.factBytes += len(text)
	fi, fd := toFacts(ins), toFacts(dels)
	var next *idlog.Database
	var delta *idlog.Delta
	t.in("core.apply", func() { next, delta, err = w.shadow.Apply(fi, fd) })
	if err != nil {
		return err
	}
	var up idlog.UpdateStats
	t.in("incremental.apply", func() { up, err = w.view.Advance(next, delta) })
	if err != nil {
		return err
	}
	w.shadow = next
	w.overdeleted += up.Overdeleted
	w.rederived += up.Rederived
	t.in("wal.append", func() { _, err = w.scratch.Append(wal.Record{Session: sessionName, Inserts: fi, Deletes: fd}) })
	w.appends++
	return err
}

func (w *serveMixed) layerMetrics(t *tracer) (map[string]float64, error) {
	m, err := w.serveMetrics()
	if err != nil {
		return nil, err
	}
	m["incremental_rederive_ratio"] = ratio(float64(w.rederived), float64(w.overdeleted))
	m["wal_appends"] = float64(w.appends)
	m["wal_fsyncs"] = float64(w.appends) // Log.Append syncs once per record
	m["wal_write_amp"] = ratio(float64(w.scratch.Size()-w.logBytes0), float64(w.factBytes))
	// The slowest mutation within 8 operations of each checkpoint,
	// averaged over the checkpoints the traced pass crossed.
	var stalls []float64
	for _, at := range w.checkpoints {
		worst := time.Duration(0)
		for j := at - 8; j <= at+8; j++ {
			if j >= 0 && j < len(w.mutLat) && w.mutLat[j] > worst {
				worst = w.mutLat[j]
			}
		}
		stalls = append(stalls, ms(worst))
	}
	m["wal_checkpoint_stall_ms"] = median(stalls)
	return m, nil
}

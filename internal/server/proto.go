// Package server implements idlogd, the long-lived IDLOG query server:
// programs are compiled once and held immutable, databases are frozen
// snapshots shared by any number of concurrent evaluations, and every
// request runs under an internal/guard budget mapped from the wire.
//
// The wire protocol is JSON over HTTP:
//
//	POST   /v1/programs            register {name, source}
//	GET    /v1/programs            list registered programs
//	POST   /v1/query               evaluate a goal or dump predicates
//	POST   /v1/sample              run a §3.3 sampling query
//	POST   /v1/sessions            create a named database snapshot
//	GET    /v1/sessions            list sessions
//	DELETE /v1/sessions/{name}     drop a session
//	POST   /v1/facts               mutate the base database (inserts+deletes)
//	POST   /v1/sessions/{name}/facts  mutate a session (inserts+deletes)
//	POST   /v1/sessions/{name}/views  register a live incremental view
//	GET    /v1/sessions/{name}/views  list a session's live views
//	GET    /healthz                liveness + drain state
//	GET    /metrics                Prometheus text exposition
//
// Mutations run through Database.Apply (deletes before inserts,
// whole-batch validation, copy-on-write snapshots) and, when idlogd
// runs with -wal, are appended to a write-ahead log and fsynced before
// they are acknowledged; on restart the daemon replays the log over the
// last checkpoint snapshot. Live views are materialized models kept
// consistent under mutations by delta/DRed propagation (see
// internal/incremental), so querying them costs no evaluation.
//
// Concurrency model: the compiled *idlog.Program and the frozen
// *idlog.Database are shared immutably across request goroutines; all
// mutable evaluation state (IDB work relations, ID-relations, compiled
// clauses, guards, provenance) is private to one evaluation. Session
// fact loads never mutate a live snapshot — they thaw a copy, add the
// facts, freeze, and atomically swap the session pointer, so in-flight
// queries keep reading the snapshot they started with.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"idlog"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// budgetFields are the per-request governance knobs, shared by query
// and sample requests. They map 1:1 onto internal/guard limits.
type budgetFields struct {
	// Timeout is a Go duration string ("500ms", "5s"). Empty applies
	// the server default; values above the server maximum are clamped.
	Timeout string `json:"timeout,omitempty"`
	// MaxTuples caps materialized tuples (0 = server default).
	MaxTuples int `json:"max_tuples,omitempty"`
	// MaxDerivations caps body instantiations (0 = server default).
	MaxDerivations int `json:"max_derivations,omitempty"`
	// Partial asks for the partial result alongside a budget-tripped
	// error response.
	Partial bool `json:"partial,omitempty"`
}

// programRequest registers a program.
type programRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// programInfo describes a registered program.
type programInfo struct {
	Name    string   `json:"name"`
	Strata  int      `json:"strata"`
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
}

// queryRequest evaluates a goal (bindings) or dumps predicates
// (relations) against a program and a database.
type queryRequest struct {
	// Program names a registered program; Source supplies one inline.
	// Exactly one must be set.
	Program string `json:"program,omitempty"`
	Source  string `json:"source,omitempty"`
	// Session names a snapshot database; Facts supplies ad-hoc ground
	// facts in program syntax. Both may be set: the facts extend a
	// request-private copy of the session snapshot.
	Session string `json:"session,omitempty"`
	Facts   string `json:"facts,omitempty"`
	// View names a live view of the session: predicates are served
	// straight from the incrementally maintained model, with no
	// evaluation. Requires Session and Predicates; Program, Source,
	// Goal, and Facts must be absent.
	View string `json:"view,omitempty"`
	// Goal is a query body ("tc(a, X), X != b"); bindings come back as
	// vars/rows. Alternatively Predicates asks for whole relations of
	// the computed model. Exactly one of the two must be set.
	Goal       string   `json:"goal,omitempty"`
	Predicates []string `json:"predicates,omitempty"`
	// Seed selects the seeded random oracle; nil runs deterministic.
	Seed *uint64 `json:"seed,omitempty"`
	budgetFields
}

// relationJSON is one relation of a response.
type relationJSON struct {
	Arity  int     `json:"arity"`
	Tuples [][]any `json:"tuples"`
	// Text is the canonical rendering, byte-identical to the CLI's
	// output for the same relation.
	Text string `json:"text"`
}

// statsJSON mirrors idlog.Stats on the wire.
type statsJSON struct {
	Derivations   int `json:"derivations"`
	Inserted      int `json:"inserted"`
	TuplesScanned int `json:"tuples_scanned"`
	Iterations    int `json:"iterations"`
	IDRelations   int `json:"id_relations"`
}

func statsOf(s idlog.Stats) *statsJSON {
	return &statsJSON{
		Derivations:   s.Derivations,
		Inserted:      s.Inserted,
		TuplesScanned: s.TuplesScanned,
		Iterations:    s.Iterations,
		IDRelations:   s.IDRelations,
	}
}

// queryResponse carries bindings (goal queries) or relations
// (predicate queries).
type queryResponse struct {
	Vars      []string                `json:"vars,omitempty"`
	Rows      [][]any                 `json:"rows,omitempty"`
	Holds     *bool                   `json:"holds,omitempty"`
	Relations map[string]relationJSON `json:"relations,omitempty"`
	Stats     *statsJSON              `json:"stats,omitempty"`
	// Incomplete marks a partial model (only on budget-tripped
	// responses that asked for partial results).
	Incomplete bool    `json:"incomplete,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// sampleRequest runs the paper's sampling query (§3.3): choose K
// tuples from every group of Relation.
type sampleRequest struct {
	Relation string `json:"relation"`
	Arity    int    `json:"arity"`
	// GroupBy are 1-based grouping columns (empty = one global group).
	GroupBy []int  `json:"group_by,omitempty"`
	K       int    `json:"k"`
	Seed    uint64 `json:"seed"`
	Session string `json:"session,omitempty"`
	Facts   string `json:"facts,omitempty"`
	budgetFields
}

// sampleResponse is the chosen sample.
type sampleResponse struct {
	Rows      [][]any `json:"rows"`
	Text      string  `json:"text"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// sessionRequest creates a session from ground facts.
type sessionRequest struct {
	Name  string `json:"name,omitempty"`
	Facts string `json:"facts,omitempty"`
}

// factsRequest mutates a database: Inserts and Deletes are ground
// facts in program syntax ("e(a, b). e(b, c)."). Facts is a legacy
// alias for Inserts (insert-only loads). Deletes apply before inserts.
// The budget fields bound the incremental maintenance work on the
// session's live views.
type factsRequest struct {
	Facts   string `json:"facts,omitempty"`
	Inserts string `json:"inserts,omitempty"`
	Deletes string `json:"deletes,omitempty"`
	budgetFields
}

// viewUpdateJSON reports how one live view absorbed a mutation.
type viewUpdateJSON struct {
	Name string `json:"name"`
	idlog.UpdateStats
	// Rebuilt marks a view that failed to update incrementally and was
	// recomputed from scratch; Dropped one whose rebuild also failed and
	// which was removed.
	Rebuilt bool   `json:"rebuilt,omitempty"`
	Dropped bool   `json:"dropped,omitempty"`
	Error   string `json:"error,omitempty"`
}

// mutateResponse acknowledges a durable mutation. Inserted/Deleted are
// the effective EDB changes (no-ops excluded); the acknowledgment is
// sent only after the WAL entry (when a WAL is configured) is fsynced.
type mutateResponse struct {
	Session   string           `json:"session,omitempty"`
	Snapshot  uint64           `json:"snapshot"`
	Inserted  int              `json:"inserted"`
	Deleted   int              `json:"deleted"`
	Views     []viewUpdateJSON `json:"views,omitempty"`
	ElapsedMS float64          `json:"elapsed_ms"`
}

// viewRequest registers a live view on a session: the named program (or
// an inline source) is evaluated over the session's snapshot and then
// maintained incrementally under every subsequent mutation.
type viewRequest struct {
	Name    string  `json:"name"`
	Program string  `json:"program,omitempty"`
	Source  string  `json:"source,omitempty"`
	Seed    *uint64 `json:"seed,omitempty"`
	budgetFields
}

// viewInfo describes one live view.
type viewInfo struct {
	Name      string            `json:"name"`
	Program   string            `json:"program"`
	Relations map[string]int    `json:"relations"`
	Updates   idlog.UpdateStats `json:"updates"`
	Rebuilds  uint64            `json:"rebuilds"`
}

// sessionInfo describes one live session.
type sessionInfo struct {
	Name      string         `json:"name"`
	Relations map[string]int `json:"relations"`
	IdleS     float64        `json:"idle_s"`
	Snapshot  uint64         `json:"snapshot"`
}

// errorBody is the uniform error envelope: the idlog.Error taxonomy
// code in snake_case, the failing operation, and a human message. A
// budget-tripped query that asked for partial results additionally
// carries them.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Op      string `json:"op,omitempty"`
		Message string `json:"message"`
	} `json:"error"`
	Partial *queryResponse `json:"partial,omitempty"`
}

// apiError pairs an HTTP status with a typed error envelope.
// retryAfter, when nonzero, becomes a Retry-After header (seconds) —
// degraded-mode 503s use it to tell clients to back off.
type apiError struct {
	status     int
	code       string
	op         string
	message    string
	retryAfter int
	partial    *queryResponse
}

func (e *apiError) Error() string { return fmt.Sprintf("%d %s: %s", e.status, e.code, e.message) }

// statusClientClosed is nginx's non-standard 499 "client closed
// request": the caller canceled, nobody is listening for the body.
const statusClientClosed = 499

// apiErrorf builds a plain apiError.
func apiErrorf(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, message: fmt.Sprintf(format, args...)}
}

// fromEngineError maps an engine error onto HTTP semantics via the
// typed taxonomy: invalid input 400, cancellation 499, deadline 504,
// spent budget 429, engine invariant 500.
func fromEngineError(err error) *apiError {
	var ie *idlog.Error
	if errors.As(err, &ie) {
		status := http.StatusInternalServerError
		switch ie.Code {
		case idlog.CodeParseError, idlog.CodeStratificationError:
			status = http.StatusBadRequest
		case idlog.CodeCanceled:
			status = statusClientClosed
		case idlog.CodeDeadlineExceeded:
			status = http.StatusGatewayTimeout
		case idlog.CodeResourceExhausted:
			status = http.StatusTooManyRequests
		}
		return &apiError{status: status, code: ie.Code.String(), op: ie.Op, message: ie.Error()}
	}
	return &apiError{status: http.StatusBadRequest, code: "invalid_argument", message: err.Error()}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.retryAfter))
	}
	var body errorBody
	body.Error.Code = e.code
	body.Error.Op = e.op
	body.Error.Message = e.message
	body.Partial = e.partial
	writeJSON(w, e.status, body)
}

// tupleJSON renders a tuple as a JSON array: u-constants as strings,
// i-constants as numbers.
func tupleJSON(t value.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		if v.IsInt() {
			out[i] = v.Num
		} else {
			out[i] = v.String()
		}
	}
	return out
}

// relationBody renders a relation in canonical order.
func relationBody(r *relation.Relation) relationJSON {
	sorted := r.Sorted()
	tuples := make([][]any, len(sorted))
	for i, t := range sorted {
		tuples[i] = tupleJSON(t)
	}
	return relationJSON{Arity: r.Arity(), Tuples: tuples, Text: r.String()}
}

// budget is a request's resolved, clamped governance envelope.
type budget struct {
	timeout        time.Duration
	maxTuples      int
	maxDerivations int
}

// parseBudget resolves the request's budget fields against the server
// defaults, clamping the timeout.
func (s *Server) parseBudget(b budgetFields) (budget, *apiError) {
	out := budget{timeout: s.cfg.DefaultTimeout}
	if b.Timeout != "" {
		d, perr := time.ParseDuration(b.Timeout)
		if perr != nil || d < 0 {
			return budget{}, apiErrorf(http.StatusBadRequest, "invalid_argument", "bad timeout %q", b.Timeout)
		}
		out.timeout = d
	}
	if s.cfg.MaxTimeout > 0 && (out.timeout == 0 || out.timeout > s.cfg.MaxTimeout) {
		out.timeout = s.cfg.MaxTimeout
	}
	out.maxTuples = b.MaxTuples
	if out.maxTuples == 0 {
		out.maxTuples = s.cfg.DefaultMaxTuples
	}
	if out.maxTuples < 0 {
		return budget{}, apiErrorf(http.StatusBadRequest, "invalid_argument", "bad max_tuples %d", b.MaxTuples)
	}
	out.maxDerivations = b.MaxDerivations
	if out.maxDerivations == 0 {
		out.maxDerivations = s.cfg.DefaultMaxDerivations
	}
	if out.maxDerivations < 0 {
		return budget{}, apiErrorf(http.StatusBadRequest, "invalid_argument", "bad max_derivations %d", b.MaxDerivations)
	}
	return out, nil
}

// options converts the resolved budget into engine options.
func (b budget) options() []idlog.Option {
	var opts []idlog.Option
	if b.timeout > 0 {
		opts = append(opts, idlog.WithTimeout(b.timeout))
	}
	if b.maxTuples > 0 {
		opts = append(opts, idlog.WithMaxTuples(b.maxTuples))
	}
	if b.maxDerivations > 0 {
		opts = append(opts, idlog.WithMaxDerivations(b.maxDerivations))
	}
	return opts
}

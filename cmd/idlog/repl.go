package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"idlog"
	"idlog/internal/ast"
	"idlog/internal/parser"
	"idlog/internal/wal"
)

// replLimits are the session's per-query resource budgets. Zero means
// unlimited. They seed from the CLI's -timeout / -max-tuples /
// -max-derivations flags and are adjustable with :limits.
type replLimits struct {
	timeout        time.Duration
	maxTuples      int
	maxDerivations int
}

// options renders the limits as engine options.
func (l replLimits) options() []idlog.Option {
	var opts []idlog.Option
	if l.timeout > 0 {
		opts = append(opts, idlog.WithTimeout(l.timeout))
	}
	if l.maxTuples > 0 {
		opts = append(opts, idlog.WithMaxTuples(l.maxTuples))
	}
	if l.maxDerivations > 0 {
		opts = append(opts, idlog.WithMaxDerivations(l.maxDerivations))
	}
	return opts
}

func (l replLimits) String() string {
	show := func(n int) string {
		if n <= 0 {
			return "off"
		}
		return strconv.Itoa(n)
	}
	t := "off"
	if l.timeout > 0 {
		t = l.timeout.String()
	}
	return fmt.Sprintf("limits: timeout=%s, max-tuples=%s, max-derivations=%s",
		t, show(l.maxTuples), show(l.maxDerivations))
}

// repl is the interactive session state. Clauses hold the session
// program; db holds the live extensional database mutated by :assert
// and :retract (and replayed from -wal on startup). Queries see both.
type repl struct {
	clauses []*ast.Clause
	db      *idlog.Database
	wal     *wal.Log
	seed    uint64
	random  bool
	limits  replLimits
	out     io.Writer
}

// replDBListMax bounds how many tuples :db prints per relation; beyond
// it only the size line appears (disk-backed EDBs can exceed RAM).
const replDBListMax = 100

const replHelp = `commands:
  fact or clause ending in '.'   add to the session program
  ?- body.                       query: evaluate and print answers
  :list                          print the session program
  :assert f(a, b). g(c).         insert ground facts into the live database
  :retract f(a, b).              delete ground facts from the live database
  :db                            print the live database relations with
                                 sizes (and disk-resident tuple counts)
  :load FILE                     load clauses/facts from a file
  :seed N                        use the random oracle with seed N
  :sorted                        back to the deterministic oracle
  :plan body.                    print the join plans a query would use
                                 (body order, probe columns, estimated rows)
  :limits [KEY VALUE ...]        show or set per-query budgets; keys:
                                 timeout (duration), max-tuples,
                                 max-derivations (0 = off)
  :clear                         drop all session clauses
  :help                          this text
  :quit                          leave
(':' commands also answer to a '\' prefix, e.g. \limits)`

// runREPL reads commands from r until EOF or :quit. Preloaded clauses
// (from -facts / -load) seed the session program; limits seed the
// per-query budgets; a non-nil seed starts the session on the random
// oracle with that seed, as :seed would. db seeds the live database
// mutated by :assert / :retract (nil means empty); log, when non-nil,
// receives one durable record per mutation.
func runREPL(r io.Reader, w io.Writer, limits replLimits, seed *uint64, db *idlog.Database, log *wal.Log, preload ...*ast.Clause) {
	if db == nil {
		db = idlog.NewDatabase()
	}
	// :assert and :retract derive each next snapshot with Apply, which
	// keeps it frozen, so the planner may price probes from exact
	// distinct counts (see :plan).
	db.Freeze()
	s := &repl{out: w, clauses: preload, db: db, wal: log, limits: limits}
	if seed != nil {
		s.seed, s.random = *seed, true
	}
	fmt.Fprintln(w, "idlog interactive — :help for commands")
	if len(preload) > 0 {
		fmt.Fprintf(w, "preloaded %d clauses\n", len(preload))
	}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(w, "idlog> ")
		} else {
			fmt.Fprint(w, "  ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && trimmed == "" {
			prompt()
			continue
		}
		if buf.Len() == 0 && (strings.HasPrefix(trimmed, ":") || strings.HasPrefix(trimmed, `\`)) {
			if s.command(trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ".") {
			s.input(strings.TrimSpace(buf.String()))
			buf.Reset()
		}
		prompt()
	}
}

// command handles a ':' (or '\') directive; reports whether to quit.
func (s *repl) command(line string) bool {
	fields := strings.Fields(line)
	if strings.HasPrefix(fields[0], `\`) {
		fields[0] = ":" + fields[0][1:]
	}
	switch fields[0] {
	case ":quit", ":q", ":exit":
		fmt.Fprintln(s.out, "bye")
		return true
	case ":help", ":h":
		fmt.Fprintln(s.out, replHelp)
	case ":list":
		for _, c := range s.clauses {
			fmt.Fprintln(s.out, c)
		}
	case ":clear":
		s.clauses = nil
		fmt.Fprintln(s.out, "cleared")
	case ":sorted":
		s.random = false
		fmt.Fprintln(s.out, "oracle: sorted (deterministic)")
	case ":seed":
		if len(fields) != 2 {
			fmt.Fprintln(s.out, "usage: :seed N")
			break
		}
		n, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintln(s.out, "bad seed:", fields[1])
			break
		}
		s.seed, s.random = n, true
		fmt.Fprintf(s.out, "oracle: random, seed %d\n", n)
	case ":assert":
		s.mutate(strings.TrimSpace(line[len(fields[0]):]), false)
	case ":retract":
		s.mutate(strings.TrimSpace(line[len(fields[0]):]), true)
	case ":db":
		if len(s.db.Names()) == 0 {
			fmt.Fprintln(s.out, "database empty")
			break
		}
		for _, name := range s.db.Names() {
			r := s.db.Relation(name)
			size := fmt.Sprintf("%s/%d: %d tuple(s)", name, r.Arity(), r.Len())
			if n := r.SourceLen(); n > 0 {
				size += fmt.Sprintf(", %d disk-resident", n)
			}
			fmt.Fprintln(s.out, size)
			// A disk-backed relation can dwarf RAM; list contents only
			// when they plausibly fit a screen.
			if r.Len() <= replDBListMax {
				fmt.Fprintln(s.out, r)
			} else {
				fmt.Fprintf(s.out, "  (contents elided; > %d tuples)\n", replDBListMax)
			}
		}
	case ":plan":
		arg := strings.TrimSpace(line[len(fields[0]):])
		arg = strings.TrimSpace(strings.TrimPrefix(arg, "?-"))
		if arg == "" {
			fmt.Fprintln(s.out, "usage: :plan body, e.g. :plan tc(X, Y)")
			break
		}
		s.planQuery(arg)
	case ":limits":
		s.limitsCommand(fields[1:])
	case ":load":
		if len(fields) != 2 {
			fmt.Fprintln(s.out, "usage: :load FILE")
			break
		}
		src, err := os.ReadFile(fields[1])
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			break
		}
		prog, err := parser.Program(string(src))
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
			break
		}
		s.clauses = append(s.clauses, prog.Clauses...)
		fmt.Fprintf(s.out, "loaded %d clauses\n", len(prog.Clauses))
	default:
		fmt.Fprintln(s.out, "unknown command; :help")
	}
	return false
}

// limitsUsage names every key limitsCommand accepts.
const limitsUsage = "usage: :limits [timeout D] [max-tuples N] [max-derivations N]"

// limitsCommand shows or sets the per-query limits: KEY VALUE pairs
// with keys timeout, max-tuples and max-derivations (0 switches one
// off).
func (s *repl) limitsCommand(args []string) {
	if len(args)%2 != 0 {
		fmt.Fprintln(s.out, limitsUsage)
		return
	}
	next := s.limits
	for i := 0; i < len(args); i += 2 {
		key, val := args[i], args[i+1]
		switch key {
		case "timeout":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				fmt.Fprintln(s.out, "bad timeout:", val)
				return
			}
			next.timeout = d
		case "max-tuples":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				fmt.Fprintln(s.out, "bad max-tuples:", val)
				return
			}
			next.maxTuples = n
		case "max-derivations":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				fmt.Fprintln(s.out, "bad max-derivations:", val)
				return
			}
			next.maxDerivations = n
		default:
			fmt.Fprintln(s.out, "unknown limit:", key)
			return
		}
	}
	s.limits = next
	fmt.Fprintln(s.out, s.limits)
}

// mutate applies :assert (retract=false) or :retract (retract=true)
// to the live database. src holds ground facts in program syntax. The
// mutation is copy-on-write: the WAL record (when -wal is active) is
// appended and synced before the new database becomes visible, so an
// acknowledged mutation is never lost to a crash.
func (s *repl) mutate(src string, retract bool) {
	if src == "" {
		verb := ":assert"
		if retract {
			verb = ":retract"
		}
		fmt.Fprintf(s.out, "usage: %s f(a, b). g(c).\n", verb)
		return
	}
	facts, err := idlog.ParseFacts(src)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	inserts, deletes := facts, []idlog.Fact(nil)
	if retract {
		inserts, deletes = nil, facts
	}
	next, delta, err := s.db.Apply(inserts, deletes)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	if s.wal != nil {
		if _, err := s.wal.Append(wal.Record{Inserts: inserts, Deletes: deletes}); err != nil {
			fmt.Fprintln(s.out, "error: wal append:", err)
			return
		}
	}
	s.db = next
	if retract {
		fmt.Fprintf(s.out, "retracted %d fact(s)\n", delta.DeleteCount())
	} else {
		fmt.Fprintf(s.out, "asserted %d fact(s)\n", delta.InsertCount())
	}
}

// input handles a clause or a ?- query.
func (s *repl) input(text string) {
	if rest, ok := strings.CutPrefix(text, "?-"); ok {
		s.query(strings.TrimSpace(rest))
		return
	}
	c, err := parser.Clause(text)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	// Validate the program still analyzes before committing the clause.
	candidate := append(append([]*ast.Clause{}, s.clauses...), c)
	if _, err := idlog.FromAST(&ast.Program{Clauses: candidate}); err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	s.clauses = candidate
	fmt.Fprintln(s.out, "ok")
}

// buildQuery compiles the session program and prepares "?- body"
// against it: Program.Prepare wraps the goal in a fresh answer
// predicate, compiles it, and — for bound goals — attaches the
// magic-sets rewriting, so REPL queries take exactly the demand path
// library callers get.
func (s *repl) buildQuery(body string) (*idlog.PreparedQuery, error) {
	body = strings.TrimSuffix(strings.TrimSpace(body), ".")
	compiled, err := idlog.FromAST(&ast.Program{Clauses: s.clauses})
	if err != nil {
		return nil, err
	}
	return compiled.Prepare(body)
}

// options renders the session's per-query engine options.
func (s *repl) options() []idlog.Option {
	opts := s.limits.options()
	if s.random {
		opts = append(opts, idlog.WithSeed(s.seed))
	}
	return opts
}

// planQuery prints the join plans the engine would use for a query —
// the same program query() evaluates, rendered by ExplainPlan: with the
// demand rewrite active that is the rewritten (adorned + magic)
// program, so the output matches what actually executes.
func (s *repl) planQuery(body string) {
	pq, err := s.buildQuery(body)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	out, err := pq.ExplainPlan(s.db, s.options()...)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	fmt.Fprint(s.out, out)
}

// query evaluates "?- body." against the session program: a fresh
// answer predicate collects the bindings of the body's variables.
func (s *repl) query(body string) {
	pq, err := s.buildQuery(body)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	res, err := pq.Query(s.db, s.options()...)
	if err != nil {
		fmt.Fprintln(s.out, "error:", err)
		return
	}
	if len(res.Vars) == 0 {
		if res.Holds() {
			fmt.Fprintln(s.out, "true")
		} else {
			fmt.Fprintln(s.out, "false")
		}
		return
	}
	if len(res.Rows) == 0 {
		fmt.Fprintln(s.out, "no answers")
		return
	}
	for _, t := range res.Rows {
		parts := make([]string, len(res.Vars))
		for i, v := range res.Vars {
			parts[i] = fmt.Sprintf("%s = %s", v, t[i])
		}
		fmt.Fprintln(s.out, strings.Join(parts, ", "))
	}
	fmt.Fprintf(s.out, "%d answer(s)\n", len(res.Rows))
}

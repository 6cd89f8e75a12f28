// Command idlog evaluates IDLOG / DATALOG^C programs from files.
//
// Usage:
//
//	idlog [flags] program.idl
//	idlog -i                 # interactive session
//
//	-facts file      fact file(s) loaded as input relations (repeatable)
//	-load file.idb   binary snapshot loaded as input relations
//	-wal file        (with -i) durable write-ahead log: replayed into the
//	                 session database on startup; :assert/:retract append
//	                 to it before acknowledging
//	-save file.idb   write the result relations to a binary snapshot
//	-query p,q       print only these predicates (default: all outputs)
//	-seed n          use the seeded random oracle, seed n (0 included; also
//	                 seeds -i); without it the sorted, deterministic oracle
//	-enumerate       enumerate ALL answers of the query predicates
//	-max-runs n      budget for -enumerate (default 100000)
//	-timeout d       wall-clock budget for the run, e.g. 5s, 300ms (0 = none)
//	-max-tuples n    materialized-tuple budget, a memory ceiling (0 = none)
//	-max-derivations n  derivation budget, a work ceiling (0 = none)
//	-plan            print the join plans the engine would use and exit
//	-partial         on a tripped budget/timeout, still print the partial model
//	-optimize p      print the §4-optimized program w.r.t. p and exit
//	-show            print the (choice-translated) program before running
//	-stats           print evaluation statistics
//	-engine e        storage engine: mem (default) or disk, which reads the
//	                 EDB from segment files in -data-dir through a bounded
//	                 block cache so databases larger than RAM evaluate
//	-data-dir dir    disk-engine data directory
//	-cache-mb n      disk-engine block cache budget in MiB (default 64)
//	-bulk-load file  stream a fact file into a fresh -data-dir database
//	                 (never materializing it in memory) and exit
//
// Ctrl-C (SIGINT) cancels the run gracefully: the engine stops at the
// next guard checkpoint and exits with the cancellation code.
//
// Exit codes:
//
//	0  success
//	1  program, input, or I/O error
//	2  usage error
//	3  canceled (SIGINT or context cancellation)
//	4  timeout (deadline or -timeout budget)
//	5  resource budget exhausted (-max-tuples, -max-derivations, -max-runs)
//	6  internal engine error (recovered panic)
//
// Fact files contain ground facts in program syntax, e.g.:
//
//	emp(joe, toys).
//	emp(sue, shoes).
//
// with % and // comments and quoted constants (in which a doubled quote
// is a quote) as in programs. -facts and -bulk-load stream them through
// the ground-fact scanner of internal/parser, which builds no AST and
// rejects rules and variables; the interactive preload (-i -facts)
// reads them as program clauses.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"idlog"
	"idlog/internal/ast"
	"idlog/internal/parser"
	"idlog/internal/storage"
	"idlog/internal/wal"
)

// Exit codes; see the package comment.
const (
	exitOK       = 0
	exitError    = 1
	exitUsage    = 2
	exitCanceled = 3
	exitTimeout  = 4
	exitBudget   = 5
	exitInternal = 6
)

// exitCode maps an error to the CLI's exit code via the typed taxonomy.
func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	var ie *idlog.Error
	if errors.As(err, &ie) {
		switch ie.Code {
		case idlog.CodeCanceled:
			return exitCanceled
		case idlog.CodeDeadlineExceeded:
			return exitTimeout
		case idlog.CodeResourceExhausted:
			return exitBudget
		case idlog.CodeInternal:
			return exitInternal
		}
	}
	return exitError
}

type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }

// Set implements flag.Value.
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var factFiles stringList
	flag.Var(&factFiles, "facts", "fact file loaded as input relations (repeatable)")
	loadSnap := flag.String("load", "", "binary snapshot loaded as input relations")
	saveSnap := flag.String("save", "", "write the result relations to a binary snapshot")
	query := flag.String("query", "", "comma-separated predicates to print (default: all outputs)")
	seed := flag.Uint64("seed", 0, "use the seeded random oracle with this seed (default: the sorted oracle)")
	enumerate := flag.Bool("enumerate", false, "enumerate all answers of the query predicates")
	maxRuns := flag.Int("max-runs", 100000, "run budget for -enumerate")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run (0 = none)")
	maxTuples := flag.Int("max-tuples", 0, "materialized-tuple budget, a memory ceiling (0 = none)")
	maxDerivations := flag.Int("max-derivations", 0, "derivation budget, a work ceiling (0 = none)")
	partial := flag.Bool("partial", false, "on a tripped budget/timeout, still print the partial model")
	optimize := flag.String("optimize", "", "print the optimized program w.r.t. this predicate and exit")
	show := flag.Bool("show", false, "print the evaluated (choice-translated) program")
	stats := flag.Bool("stats", false, "print evaluation statistics")
	plan := flag.Bool("plan", false, "print the join plans the engine would use and exit")
	interactive := flag.Bool("i", false, "start an interactive session (REPL)")
	walPath := flag.String("wal", "", "durable write-ahead log for the interactive session (with -i)")
	explain := flag.String("explain", "", "print the derivation tree of a ground atom, e.g. 'tc(a, c)'")
	engine := flag.String("engine", "mem", "storage engine: mem (in-memory) or disk (segment files in -data-dir)")
	dataDir := flag.String("data-dir", "", "disk-engine data directory (with -engine=disk or -bulk-load)")
	cacheMB := flag.Int("cache-mb", 64, "disk-engine block cache budget in MiB")
	bulkLoad := flag.String("bulk-load", "", "stream a fact file into a fresh -data-dir database and exit")
	flag.Parse()
	// An explicit -seed, 0 included, selects the seeded random oracle.
	var seeded *uint64
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seeded = seed
		}
	})

	kind, err := storage.ParseEngineKind(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idlog:", err)
		os.Exit(exitUsage)
	}
	if *bulkLoad != "" {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "idlog: -bulk-load requires -data-dir")
			os.Exit(exitUsage)
		}
		stats, err := storage.BulkLoadFile(*dataDir, *bulkLoad)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %d tuple(s) into %d relation(s) (%d duplicate(s) dropped)\n",
			stats.Tuples, stats.Relations, stats.Duplicates)
		return
	}
	if kind == storage.EngineDisk && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "idlog: -engine=disk requires -data-dir")
		os.Exit(exitUsage)
	}
	eng := storage.Engine{Kind: kind, Dir: *dataDir, CacheBytes: int64(*cacheMB) << 20}

	if *interactive {
		var preload []*ast.Clause
		if *loadSnap != "" {
			db, err := storage.LoadFile(*loadSnap)
			if err != nil {
				fatal(err)
			}
			preload = append(preload, databaseClauses(db)...)
		}
		for _, f := range factFiles {
			src, err := os.ReadFile(f)
			if err != nil {
				fatal(err)
			}
			prog, err := parser.Program(string(src))
			if err != nil {
				fatal(err)
			}
			preload = append(preload, prog.Clauses...)
		}
		db := idlog.NewDatabase()
		if eng.Disk() {
			loaded, err := storage.OpenDir(eng.Dir, eng.Cache())
			if err != nil && !os.IsNotExist(err) {
				fatal(err)
			}
			if err == nil {
				db = loaded
			}
		}
		var log *wal.Log
		if *walPath != "" {
			l, recs, err := wal.Open(*walPath)
			if err != nil {
				fatal(err)
			}
			defer l.Close()
			// Replay the surviving prefix; records from idlogd WALs
			// carry session names, which the REPL flattens into its
			// single database.
			for _, rec := range recs {
				next, _, err := db.Apply(rec.Inserts, rec.Deletes)
				if err != nil {
					fatal(fmt.Errorf("wal replay: %w", err))
				}
				db = next
			}
			if len(recs) > 0 {
				fmt.Printf("replayed %d wal record(s)\n", len(recs))
			}
			log = l
		}
		runREPL(os.Stdin, os.Stdout, replLimits{
			timeout:        *timeout,
			maxTuples:      *maxTuples,
			maxDerivations: *maxDerivations,
		}, seeded, db, log, preload...)
		return
	}
	if *walPath != "" {
		fmt.Fprintln(os.Stderr, "idlog: -wal requires -i (interactive session)")
		os.Exit(exitUsage)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: idlog [flags] program.idl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := idlog.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	if *optimize != "" {
		opt, err := prog.Optimize(*optimize)
		if err != nil {
			fatal(err)
		}
		fmt.Print(opt.String())
		return
	}
	if *show {
		fmt.Print(prog.String())
		fmt.Println("%----")
	}

	db := idlog.NewDatabase()
	if eng.Disk() {
		loaded, err := storage.OpenDir(eng.Dir, eng.Cache())
		if err != nil {
			fatal(err)
		}
		db = loaded
	}
	if *loadSnap != "" {
		loaded, err := storage.LoadFile(*loadSnap)
		if err != nil {
			fatal(err)
		}
		if eng.Disk() {
			// Overlay the snapshot's relations onto the disk-resident EDB.
			for _, name := range loaded.Names() {
				db.SetRelation(name, loaded.Relation(name))
			}
		} else {
			db = loaded
		}
	}
	for _, f := range factFiles {
		if err := loadFacts(db, f); err != nil {
			fatal(err)
		}
	}
	// The input is complete: freeze it, so the planner may price probes
	// from exact distinct counts (see -plan).
	db.Freeze()

	preds := prog.OutputPredicates()
	if *query != "" {
		preds = strings.Split(*query, ",")
	}

	var opts []idlog.Option
	if seeded != nil {
		opts = append(opts, idlog.WithSeed(*seeded))
	}
	if *explain != "" {
		opts = append(opts, idlog.WithTrace())
	}
	if *timeout > 0 {
		opts = append(opts, idlog.WithTimeout(*timeout))
	}
	if *maxTuples > 0 {
		opts = append(opts, idlog.WithMaxTuples(*maxTuples))
	}
	if *maxDerivations > 0 {
		opts = append(opts, idlog.WithMaxDerivations(*maxDerivations))
	}

	// Ctrl-C cancels the evaluation at the next guard checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *plan {
		out, err := prog.ExplainPlanContext(ctx, db, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	if *enumerate {
		answers, err := prog.EnumerateContext(ctx, db, preds, append(opts, idlog.WithMaxRuns(*maxRuns))...)
		if err != nil && (!*partial || len(answers) == 0) {
			fatal(err)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "idlog: warning: enumeration incomplete (%v); printing answers found so far\n", err)
		}
		fmt.Printf("%d answers:\n", len(answers))
		for i, a := range answers {
			fmt.Printf("answer %d:\n", i+1)
			for _, p := range preds {
				fmt.Printf("  %v\n", a.Relations[p])
			}
		}
		if err != nil {
			os.Exit(exitCode(err))
		}
		return
	}

	res, err := prog.EvalContext(ctx, db, opts...)
	if err != nil {
		if !*partial || res == nil || !res.Incomplete {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "idlog: warning: evaluation incomplete after %d strata (%v); printing the partial model\n",
			res.CompletedStrata, err)
	}
	if *saveSnap != "" && err == nil {
		out := idlog.NewDatabase()
		for _, p := range prog.OutputPredicates() {
			if r := res.Relation(p); r != nil {
				out.SetRelation(p, r)
			}
		}
		if err := storage.SaveFile(*saveSnap, out); err != nil {
			fatal(err)
		}
	}
	for _, p := range preds {
		r := res.Relation(p)
		if r == nil {
			fmt.Fprintf(os.Stderr, "warning: unknown predicate %s\n", p)
			continue
		}
		fmt.Println(r)
	}
	if err != nil {
		if *stats {
			fmt.Fprintln(os.Stderr, "stats:", res.Stats)
		}
		os.Exit(exitCode(err))
	}
	if *explain != "" {
		pred, tuple, err := parseGroundAtom(*explain)
		if err != nil {
			fatal(err)
		}
		tree, err := res.Explain(pred, tuple, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Print(tree)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "stats:", res.Stats)
	}
}

// parseGroundAtom parses "pred(c1, c2)" into its predicate and tuple.
func parseGroundAtom(src string) (string, idlog.Tuple, error) {
	facts, err := idlog.ParseFacts(strings.TrimSuffix(strings.TrimSpace(src), ".") + ".")
	if err != nil {
		return "", nil, err
	}
	if len(facts) != 1 {
		return "", nil, fmt.Errorf("%q is not a single ground atom", src)
	}
	return facts[0].Pred, facts[0].Tuple, nil
}

// loadFacts streams a fact file into db, one ground fact at a time.
func loadFacts(db *idlog.Database, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := parser.Facts(f, db.Add); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// databaseClauses renders a database's tuples as ground fact clauses
// for preloading an interactive session.
func databaseClauses(db *idlog.Database) []*ast.Clause {
	var out []*ast.Clause
	for _, name := range db.Names() {
		for _, t := range db.Relation(name).Sorted() {
			head := &ast.Atom{Pred: name}
			for _, v := range t {
				head.Args = append(head.Args, ast.Const{Val: v})
			}
			out = append(out, &ast.Clause{Head: head})
		}
	}
	return out
}

// fatal reports err and exits with the code its taxonomy class maps to.
func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "idlog:") {
		msg = "idlog: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(exitCode(err))
}

package idlog

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// workerGrid is the differential matrix of the parallel evaluator:
// every worker count must be observationally identical to the
// sequential engine, whether the EDB lives in memory or on disk.
var workerGrid = []int{1, 2, 4, 8}

// TestParallelDifferential is the randomized parallel-vs-sequential
// property suite: for random EDBs shaped by random mutation
// interleavings, every worker count must reproduce the sequential
// model — same output fingerprints and every Stats count — on both
// storage engines. Run with -race this also exercises
// concurrent probes and lazy index builds from many workers.
func TestParallelDifferential(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(trial)*104729 + 13))
			mem := dbAfterMutations(NewDatabase(), rng, 8+rng.Intn(24))
			dir := filepath.Join(t.TempDir(), "data")
			if err := SaveDiskDatabase(dir, mem); err != nil {
				t.Fatal(err)
			}
			disk, err := OpenDiskDatabase(dir, 8<<10)
			if err != nil {
				t.Fatal(err)
			}
			mem.Freeze()
			disk.Freeze()
			engines := []struct {
				name string
				db   *Database
			}{{"mem", mem}, {"disk", disk}}

			for pi, src := range differentialPrograms {
				prog, err := Parse(src)
				if err != nil {
					t.Fatalf("program %d: %v", pi, err)
				}
				for _, eng := range engines {
					base, err := prog.Eval(eng.db, WithParallelism(1))
					if err != nil {
						t.Fatalf("program %d %s baseline: %v", pi, eng.name, err)
					}
					for _, workers := range workerGrid {
						res, err := prog.Eval(eng.db, WithParallelism(workers))
						if err != nil {
							t.Fatalf("program %d %s w%d: %v", pi, eng.name, workers, err)
						}
						for _, p := range prog.OutputPredicates() {
							if res.Relation(p).Fingerprint() != base.Relation(p).Fingerprint() {
								t.Fatalf("program %d %s w%d: %s fingerprint diverged",
									pi, eng.name, workers, p)
							}
						}
						if res.Stats != base.Stats {
							t.Fatalf("program %d %s w%d: stats %v, sequential %v",
								pi, eng.name, workers, res.Stats, base.Stats)
						}
					}
				}
			}
		})
	}
}

// TestParallelPaperExamples pins the paper's Examples 1–8 (7–8 derived
// from 6 via Program.Optimize, as in the paper): byte-identical
// fingerprints at every worker count, deterministic and seeded.
func TestParallelPaperExamples(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 6; i++ {
		_ = db.Add("person", Strs(fmt.Sprintf("p%02d", i)))
	}
	for d := 0; d < 4; d++ {
		for e := 0; e < 5; e++ {
			_ = db.Add("emp", Strs(fmt.Sprintf("e%d_%d", d, e), fmt.Sprintf("dept%d", d)))
		}
	}
	for i := 0; i < 40; i++ {
		_ = db.Add("p", Strs(fmt.Sprintf("v%03d", i), fmt.Sprintf("v%03d", i+1)))
		if i%5 == 0 {
			_ = db.Add("p", Strs(fmt.Sprintf("v%03d", i), fmt.Sprintf("w%03d", i)))
		}
	}
	db.Freeze()

	type workload struct {
		name string
		prog *Program
		opts []Option
	}
	var workloads []workload
	for _, ex := range paperExamples {
		prog := mustParse(t, ex.src)
		workloads = append(workloads, workload{ex.name, prog, nil})
		workloads = append(workloads, workload{ex.name + "-seeded", prog, []Option{WithSeed(7)}})
	}
	ex8, err := mustParse(t, paperExamples[5].src).Optimize("q")
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, workload{"ex7-8-optimized", ex8, []Option{WithSeed(7)}})

	modelOf := func(w workload, extra ...Option) string {
		t.Helper()
		res, err := w.prog.Eval(db, append(append([]Option{}, w.opts...), extra...)...)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var b strings.Builder
		for _, p := range w.prog.OutputPredicates() {
			fmt.Fprintf(&b, "%s=%s\n", p, res.Relation(p).Fingerprint())
		}
		return b.String()
	}

	for _, w := range workloads {
		want := modelOf(w, WithParallelism(1))
		for _, workers := range workerGrid {
			got := modelOf(w, WithParallelism(workers))
			if got != want {
				t.Errorf("%s: w%d model diverged from sequential\nwant:\n%s\ngot:\n%s",
					w.name, workers, want, got)
			}
		}
	}
}

// TestParallelLiveViewInterleaving interleaves live-view maintenance
// with parallel evaluation options: incremental propagation itself
// stays sequential, but views created and updated under
// WithParallelism must track a from-scratch sequential recompute
// exactly through a random insert/delete history.
func TestParallelLiveViewInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	prog := mustParse(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Z) :- tc(X, Y), edge(Y, Z).
		node(X) :- edge(X, _).
		hasout(X) :- edge(X, _).
		sink(X) :- node(X), not hasout(X).
	`)
	db := NewDatabase()
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	sym := func() Value { return Str(names[rng.Intn(len(names))]) }
	for i := 0; i < 30; i++ {
		db.Add("edge", Tuple{sym(), sym()})
	}
	db.Freeze()

	opts := []Option{WithParallelism(2)}
	lv, err := prog.NewLiveView(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		var ins, dels []Fact
		for i := 0; i < 1+rng.Intn(4); i++ {
			ins = append(ins, Fact{Pred: "edge", Tuple: Tuple{sym(), sym()}})
		}
		if all := db.Relation("edge").Sorted(); len(all) > 0 {
			for i := 0; i < 1+rng.Intn(3); i++ {
				dels = append(dels, Fact{Pred: "edge", Tuple: all[rng.Intn(len(all))]})
			}
		}
		next, _, err := lv.Apply(ins, dels, opts...)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		db = next
		want, err := prog.Eval(db, WithParallelism(1))
		if err != nil {
			t.Fatalf("round %d recompute: %v", round, err)
		}
		for _, p := range prog.OutputPredicates() {
			if lv.Relation(p).Fingerprint() != want.Relation(p).Fingerprint() {
				t.Fatalf("round %d: view %s diverged from sequential recompute", round, p)
			}
		}
	}
}

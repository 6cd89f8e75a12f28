package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"idlog/internal/core"
)

// layeredPointSrc generates the repeated-point-query workload: a
// rulebase of `layers` stacked one-step joins over a tiny chain EDB,
// closed by an ans wrapper — the shape Program.Prepare builds for a
// goal. Each layer is its own stratum, so an unprepared query pays
// parse + stratification + per-stratum plan compilation for every
// layer on every call, while the fixpoint itself is trivial. That is
// the profile of a point query against a large registered rulebase.
func layeredPointSrc(layers int) string {
	var b strings.Builder
	b.WriteString("l0(X, Y) :- e(X, Y).\n")
	for i := 1; i < layers; i++ {
		fmt.Fprintf(&b, "l%d(X, Y) :- l%d(X, Z), e(Z, Y).\n", i, i-1)
	}
	fmt.Fprintf(&b, "ans(Y) :- l%d(0, Y).\n", layers-1)
	return b.String()
}

// E17 measures the prepared-query plan cache: each kernel runs the same
// point query `repeats` times per round, fresh parse+analyze+plan every
// time (base) vs one analysis plus a shared core.PlanCache (opt — the
// PreparedQuery path). Every cell pair is fingerprint-compared.
func E17(reps, repeats int, rules []int) *Table {
	t := &Table{
		ID:      "E17",
		Title:   "plan cache: prepared point queries",
		Claim:   "plan-cached prepared queries beat fresh parse+compile+plan by >=2x on repeated point queries, with byte-identical answers",
		Columns: []string{"kernel", "base ms", "opt ms", "speedup", "base MB", "opt MB", "identical"},
	}
	type cell struct {
		fp    func() string // one run + full-model fingerprint (warm-up)
		round func()        // the timed unit: repeats queries
	}
	type kernel struct {
		name  string
		cells [2]cell // [0]=base, [1]=opt
	}
	var kernels []kernel

	for _, nr := range rules {
		src := layeredPointSrc(nr)
		db := ChainDB(12)
		info := mustAnalyze(mustParse(src))
		pc := core.NewPlanCache(0)
		fresh := func() *core.Result {
			// A cold query re-parses the program and re-derives the
			// stratification, exactly like Program.Query on each call.
			return evalOnce(mustAnalyze(mustParse(src)), db, core.Options{})
		}
		prepared := func() *core.Result {
			return evalOnce(info, db, core.Options{PlanCache: pc})
		}
		kernels = append(kernels, kernel{
			name: fmt.Sprintf("prepared point query rules=%d x%d", nr, repeats),
			cells: [2]cell{
				{fp: func() string { return resultFingerprint(fresh(), info) },
					round: func() {
						for j := 0; j < repeats; j++ {
							fresh()
						}
					}},
				{fp: func() string { return resultFingerprint(prepared(), info) },
					round: func() {
						for j := 0; j < repeats; j++ {
							prepared()
						}
					}},
			},
		})
	}

	allIdentical := true
	for _, k := range kernels {
		row := []string{k.name}
		var prints [2]string
		var means [2]time.Duration
		var allocs [2]uint64
		for i, c := range k.cells {
			prints[i] = c.fp() // warm-up: interning, EDB indexes, plan cache
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var sum time.Duration
			for r := 0; r < reps; r++ {
				d, _ := timed(func() error {
					c.round()
					return nil
				})
				sum += d
			}
			runtime.ReadMemStats(&m1)
			means[i] = sum / time.Duration(reps)
			allocs[i] = (m1.TotalAlloc - m0.TotalAlloc) / uint64(reps)
		}
		identical := "yes"
		if prints[0] != prints[1] {
			identical = "NO"
			allIdentical = false
		}
		row = append(row,
			ms(means[0]), ms(means[1]),
			fmt.Sprintf("%.2fx", float64(means[0])/float64(means[1])),
			fmt.Sprintf("%.2f", float64(allocs[0])/(1<<20)),
			fmt.Sprintf("%.2f", float64(allocs[1])/(1<<20)),
			identical)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean of %d timed rounds per cell after one warm-up; MB is heap allocated per round (runtime.MemStats TotalAlloc delta)", reps),
		fmt.Sprintf("prepared kernels run %d point queries per round against a chain-12 EDB: base re-parses, re-stratifies, and re-plans the layered rulebase each query, opt reuses one analysis and a shared plan cache (the PreparedQuery path)", repeats),
		"'identical' compares full-model fingerprints base vs opt")
	if !allIdentical {
		t.Notes = append(t.Notes, "DIVERGENCE DETECTED: optimized answers differed from baseline — this is a bug")
	}
	return t
}

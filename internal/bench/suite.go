package bench

import "time"

// Suite bundles the experiment parameterizations.
type Suite struct {
	// E1Sizes are (departments, employees-per-department) pairs.
	E1Sizes [][2]int
	// E1Seeds is the number of seeded runs per E1 configuration.
	E1Seeds int
	// E2Sizes are (departments, employees-per-department) pairs.
	E2Sizes [][2]int
	// E3Workloads are (chain length, fan-out) pairs.
	E3Workloads [][2]int
	// E4Sizes are (departments, employees-per-department) pairs.
	E4Sizes [][2]int
	// E5Steps are Turing step budgets.
	E5Steps []int
	// E6Chains and E6Grids size the transitive-closure graphs.
	E6Chains []int
	E6Grids  []int
	// E7Persons and E8Persons size the enumeration inputs.
	E7Persons []int
	E8Persons []int
	// E9Persons sizes the four-semantics comparison.
	E9Persons []int
	// E10Sizes are relation sizes for the counting experiment;
	// E10Seeds is the invariance sample per size.
	E10Sizes []int
	E10Seeds int
	// E11Reps is the runs-per-cell sample for the governance-overhead
	// comparison; E11Chain/E11Grid/E11Emp size its kernels.
	E11Reps  int
	E11Chain int
	E11Grid  int
	E11Emp   [2]int
	// E12Clients are the concurrency levels for the server benchmark,
	// E12Requests the request count per level, E12Emp its employee
	// table size. Run by internal/bench/serverbench (kept out of this
	// package so the root benchmarks don't import the server).
	E12Clients  []int
	E12Requests int
	E12Emp      [2]int
	// E13Workers are the parallelism levels for the scaling experiment;
	// E13Reps is the timed-runs-per-cell sample and E13Grid/E13Chain/
	// E13Emp size its kernels.
	E13Workers []int
	E13Reps    int
	E13Grid    int
	E13Chain   int
	E13Emp     [2]int
	// E14Chain/E14Grid size the transitive-closure graphs for the
	// incremental-maintenance experiment; E14Persons/E14Emp/E14PGraph
	// size the paper-example EDBs it maintains views over.
	E14Chain   int
	E14Grid    int
	E14Persons int
	E14Emp     [2]int
	E14PGraph  int
	// E15Reps is the timed-runs-per-cell sample for the join-planner
	// experiment; E15JoinSizes are |big1| scales for the adversarially
	// ordered join and E15Chains the transitive-closure chain lengths.
	E15Reps      int
	E15JoinSizes []int
	E15Chains    []int
	// E16Sizes are EDB edge counts for the storage-engine experiment,
	// E16CacheKBs the disk-engine block-cache budgets swept per size,
	// and E16Reps the timed-runs-per-cell sample.
	E16Sizes    []int
	E16CacheKBs []int
	E16Reps     int
	// E17Reps is the timed-rounds-per-cell sample for the plan-cache
	// experiment; E17Repeats is the point-queries-per-round count for
	// its prepared kernels and E17Rules their layered-rulebase sizes.
	E17Reps    int
	E17Repeats int
	E17Rules   []int
	// E18Reps is the timed-runs-per-cell sample for the demand-driven
	// evaluation experiment; E18Chains are its chain lengths and
	// E18Branch the side branches per chain node.
	E18Reps   int
	E18Chains []int
	E18Branch int
}

// Quick returns a suite sized to finish in a few seconds.
func Quick() Suite {
	return Suite{
		E1Sizes:      [][2]int{{4, 8}, {8, 16}},
		E1Seeds:      20,
		E2Sizes:      [][2]int{{10, 100}, {20, 500}},
		E3Workloads:  [][2]int{{40, 10}, {60, 25}},
		E4Sizes:      [][2]int{{10, 50}, {20, 200}},
		E5Steps:      []int{4, 8, 16},
		E6Chains:     []int{64, 128},
		E6Grids:      []int{8},
		E7Persons:    []int{2, 4, 6},
		E8Persons:    []int{2, 3},
		E9Persons:    []int{2, 3},
		E10Sizes:     []int{10, 100},
		E10Seeds:     10,
		E11Reps:      7,
		E11Chain:     128,
		E11Grid:      8,
		E11Emp:       [2]int{20, 200},
		E12Clients:   []int{1, 8, 64},
		E12Requests:  192,
		E12Emp:       [2]int{10, 50},
		E13Workers:   []int{1, 2, 4, 8},
		E13Reps:      3,
		E13Grid:      12,
		E13Chain:     192,
		E13Emp:       [2]int{20, 500},
		E14Chain:     256,
		E14Grid:      12,
		E14Persons:   200,
		E14Emp:       [2]int{10, 40},
		E14PGraph:    300,
		E15Reps:      3,
		E15JoinSizes: []int{4096, 8192, 16384},
		E15Chains:    []int{64, 128, 256},
		E16Sizes:     []int{50_000, 200_000},
		E16CacheKBs:  []int{256, 4096, 65536},
		E16Reps:      3,
		E17Reps:      3,
		E17Repeats:   25,
		E17Rules:     []int{32, 64},
		E18Reps:      3,
		E18Chains:    []int{200, 400},
		E18Branch:    3,
	}
}

// Full returns the paper-scale suite (tens of seconds).
func Full() Suite {
	return Suite{
		E1Sizes:      [][2]int{{4, 8}, {8, 16}, {16, 32}, {32, 64}},
		E1Seeds:      50,
		E2Sizes:      [][2]int{{10, 100}, {20, 500}, {50, 1000}, {100, 2000}},
		E3Workloads:  [][2]int{{40, 10}, {60, 25}, {100, 50}, {150, 80}},
		E4Sizes:      [][2]int{{10, 50}, {20, 200}, {50, 500}},
		E5Steps:      []int{4, 8, 16, 32, 64},
		E6Chains:     []int{64, 128, 256},
		E6Grids:      []int{8, 12, 16},
		E7Persons:    []int{2, 4, 6, 8, 10},
		E8Persons:    []int{2, 3, 4},
		E9Persons:    []int{2, 3, 4},
		E10Sizes:     []int{10, 100, 1000, 5000},
		E10Seeds:     20,
		E11Reps:      15,
		E11Chain:     256,
		E11Grid:      16,
		E11Emp:       [2]int{50, 1000},
		E12Clients:   []int{1, 8, 64},
		E12Requests:  960,
		E12Emp:       [2]int{20, 200},
		E13Workers:   []int{1, 2, 4, 8},
		E13Reps:      7,
		E13Grid:      20,
		E13Chain:     512,
		E13Emp:       [2]int{50, 2000},
		E14Chain:     512,
		E14Grid:      16,
		E14Persons:   1000,
		E14Emp:       [2]int{20, 100},
		E14PGraph:    1000,
		E15Reps:      7,
		E15JoinSizes: []int{16384, 32768, 65536},
		E15Chains:    []int{128, 256, 512},
		// The largest in-memory benchmark EDB is E15's 65536-key join
		// (~130k tuples); 2M edges is ~15x that, and the full-scan
		// kernel touches every one from disk.
		E16Sizes:    []int{500_000, 2_000_000},
		E16CacheKBs: []int{256, 4096, 65536},
		E16Reps:     3,
		E17Reps:     5,
		E17Repeats:  100,
		E17Rules:    []int{64, 128},
		E18Reps:     5,
		E18Chains:   []int{400, 800, 1200},
		E18Branch:   3,
	}
}

// Run executes the selected experiments ("" or "all" = every one),
// stamping each table with its generation cost.
func Run(s Suite, only string) []*Table {
	var out []*Table
	run := func(id string, f func() *Table) {
		if only != "" && only != "all" && only != id {
			return
		}
		start := time.Now()
		t := f()
		t.ElapsedNS = time.Since(start).Nanoseconds()
		out = append(out, t)
	}
	run("E1", func() *Table { return E1(s.E1Sizes, s.E1Seeds) })
	run("E2", func() *Table { return E2(s.E2Sizes) })
	run("E3", func() *Table { return E3(s.E3Workloads) })
	run("E4", func() *Table { return E4(s.E4Sizes) })
	run("E5", func() *Table { return E5(s.E5Steps) })
	run("E6", func() *Table { return E6(s.E6Chains, s.E6Grids) })
	run("E7", func() *Table { return E7(s.E7Persons) })
	run("E8", func() *Table { return E8(s.E8Persons) })
	run("E9", func() *Table { return E9(s.E9Persons) })
	run("E10", func() *Table { return E10(s.E10Sizes, s.E10Seeds) })
	run("E11", func() *Table { return E11(s.E11Reps, s.E11Chain, s.E11Grid, s.E11Emp[0], s.E11Emp[1]) })
	run("E13", func() *Table { return E13(s.E13Reps, s.E13Grid, s.E13Chain, s.E13Emp[0], s.E13Emp[1], s.E13Workers) })
	run("E14", func() *Table { return E14(s.E14Chain, s.E14Grid, s.E14Persons, s.E14Emp, s.E14PGraph) })
	run("E15", func() *Table { return E15(s.E15Reps, s.E15JoinSizes, s.E15Chains) })
	run("E16", func() *Table { return E16(s.E16Sizes, s.E16CacheKBs, s.E16Reps) })
	run("E17", func() *Table { return E17(s.E17Reps, s.E17Repeats, s.E17Rules) })
	run("E18", func() *Table { return E18(s.E18Reps, s.E18Chains, s.E18Branch) })
	return out
}

package bench

import (
	"fmt"
	"runtime"
	"time"

	"idlog/internal/analysis"
	"idlog/internal/core"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// sparseReachDB builds the demand-sparse kernel: k disjoint chains of
// length l, with the start marker at chain 0's head. Single-source
// reachability touches only chain 0's l+1 keys, so a partitioned run
// probes (and therefore indexes) only the partitions those few keys
// hash into, while the unpartitioned run indexes all k·l edges.
func sparseReachDB(k, l int) *core.Database {
	db := core.NewDatabase()
	for c := 0; c < k; c++ {
		for i := 0; i < l; i++ {
			_ = db.Add("e", value.Strs(fmt.Sprintf("c%d_%d", c, i), fmt.Sprintf("c%d_%d", c, i+1)))
		}
	}
	_ = db.Add("start", value.Strs("c0_0"))
	return db
}

const reachSrc = `reach(X) :- start(X).
reach(Y) :- reach(X), e(X, Y).`

// E19 measures hash-partitioned data-parallel evaluation: each kernel
// runs the parallel engine at a fixed worker count while the partition
// fan-out sweeps 1 (the differential twin: range-sharded, shared probe
// indexes) through the configured widths. Wall clock only improves with
// real cores, so the table also reports two hardware-independent
// effects of partitioning: secondary-index tuples built per run (radix
// pruning skips index builds on partitions the delta never reaches)
// and heap allocation per run. Fingerprints are compared against the
// sequential engine in every cell — the byte-identical contract is the
// experiment's precondition, not its subject.
func E19(reps int, grid, chain int, parts []int) *Table {
	const workers = 2
	t := &Table{
		ID:      "E19",
		Title:   "hash-partitioned joins: fan-out vs index build volume, allocation, wall clock",
		Claim:   "radix-partitioned delta passes keep answers byte-identical at every fan-out, and on demand-sparse workloads partition pruning cuts secondary-index build volume as the fan-out grows; wall-clock gains need real cores",
		Columns: []string{"kernel", "parts", "mean ms", "vs parts=1", "indexed tup/run", "alloc KB/run", "skew", "identical"},
	}
	kernels := []struct {
		name string
		info *analysis.Info
		db   func() *core.Database
	}{
		{fmt.Sprintf("E6 tc grid-%dx%d", grid, grid),
			mustAnalyze(mustParse(tcSrc)), func() *core.Database { return GridDB(grid) }},
		{fmt.Sprintf("E6 tc chain-%d", chain),
			mustAnalyze(mustParse(tcSrc)), func() *core.Database { return ChainDB(chain) }},
		{fmt.Sprintf("sparse reach %d×%d", 4000, 3),
			mustAnalyze(mustParse(reachSrc)), func() *core.Database { return sparseReachDB(4000, 3) }},
	}
	allIdentical := true
	for _, k := range kernels {
		seqPrint := resultFingerprint(evalOnce(k.info, k.db(), core.Options{Parallelism: 1}), k.info)
		var baseMean time.Duration
		for _, np := range parts {
			opts := core.Options{Parallelism: workers, Partitions: np}
			// Warm up once (symbol interning, plan compilation) and take
			// the skew + identity reading from it.
			warm := evalOnce(k.info, k.db(), opts)
			print := resultFingerprint(warm, k.info)
			identical := "yes"
			if print != seqPrint {
				identical = "NO"
				allIdentical = false
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			idx0 := relation.IndexedTuplesTotal()
			var sum time.Duration
			for i := 0; i < reps; i++ {
				d, _ := timed(func() error {
					evalOnce(k.info, k.db(), opts)
					return nil
				})
				sum += d
			}
			idxPerRun := (relation.IndexedTuplesTotal() - idx0) / uint64(reps)
			runtime.ReadMemStats(&ms1)
			allocPerRun := (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(reps)
			mean := sum / time.Duration(reps)
			vsBase := "1.00x"
			if np == parts[0] {
				baseMean = mean
			} else {
				vsBase = fmt.Sprintf("%.2fx", float64(baseMean)/float64(mean))
			}
			t.Rows = append(t.Rows, []string{
				k.name, fmt.Sprintf("%d", np), ms(mean), vsBase,
				fmt.Sprintf("%d", idxPerRun),
				fmt.Sprintf("%.0f", float64(allocPerRun)/1024),
				fmt.Sprintf("%.2f", warm.Stats.PartitionSkew),
				identical,
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GOMAXPROCS=%d, %d cores visible; every cell runs the parallel engine at %d workers, so 'vs parts=1' isolates the partitioning effect — on a single core expect wall-clock parity (the honest reading) while the indexed-tuple and allocation columns still move", runtime.GOMAXPROCS(0), runtime.NumCPU(), workers),
		fmt.Sprintf("mean of %d runs per cell after one warm-up; 'indexed tup/run' is the process-wide secondary-index build counter per run (partition pruning: delta-empty partitions never build indexes), 'alloc KB/run' the heap TotalAlloc delta per run", reps),
		"'identical' compares the full model fingerprint of every cell (including the warm-up's partitioned run) against the sequential engine; skew is the worst largest-partition-over-mean ratio the run observed",
		"the dense tc kernels reach every join key, so every partition builds its index and their indexed-tuple column is flat by design; the sparse-reach kernel is where pruning bites — only the partitions its few-key frontier hashes into ever build",
		"delta rounds under the engine's 4096-tuple gate run inline and unpartitioned, so a kernel whose rounds all stay under it (skew 0.00) shows no partitioning effect at any fan-out")
	if !allIdentical {
		t.Notes = append(t.Notes, "DIVERGENCE DETECTED: partitioned answers differed from sequential — this is a bug")
	}
	return t
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is how one (workload, end-to-end metric) row compares.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge applies a metric's bound to a baseline value a and a candidate
// value b. The change is measured as a share of a, signed so that
// positive is worse. A row is unresolved when either side's own
// repetition spread is wider than the bound: the run cannot tell a
// movement of that size from its noise.
func judge(d metricDef, a, b, spreadA, spreadB float64) (verdict, float64) {
	change := ratio(b-a, a)
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case spreadA > d.Bound || spreadB > d.Bound:
		return unresolved, change
	case change > d.Bound:
		return worse, change
	case change < -d.Bound:
		return improved, change
	}
	return unchanged, change
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints one row per workload and end-to-end metric, then
// the exact-count layer metrics that differ, and reports whether any row
// is worse (or any operation failed on the candidate side).
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	counts := map[verdict]int{}
	fmt.Fprintf(w, "%-12s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wd := range workloadDefs {
		ra, rb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if ra == nil || rb == nil {
			return false, fmt.Errorf("workload %s is missing from one of the files", wd.Name)
		}
		for _, d := range endToEnd {
			v, change := judge(d, ra.Metrics[d.Name], rb.Metrics[d.Name], ra.RepSpread[d.Name], rb.RepSpread[d.Name])
			counts[v]++
			fmt.Fprintf(w, "%-12s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wd.Name, d.Name, ra.Metrics[d.Name], rb.Metrics[d.Name], 100*change, 100*d.Bound, v)
		}
		if rb.Failed > ra.Failed {
			counts[worse]++
			fmt.Fprintf(w, "%-12s %-14s %14d %14d %25s\n", wd.Name, "failed", ra.Failed, rb.Failed, worse)
		}
		// Counts made by the program repeat exactly for one seed and one
		// build; a difference is a behaviour change, not noise.
		if ta, tb := a.Traced[wd.Name], b.Traced[wd.Name]; ta != nil && tb != nil && a.Header.Seed == b.Header.Seed {
			for _, name := range exactCounts {
				if ta.Metrics[name] != tb.Metrics[name] {
					fmt.Fprintf(w, "%-12s %-14s %14.0f %14.0f %25s\n", wd.Name, name, ta.Metrics[name], tb.Metrics[name], "count differs")
				}
			}
		}
	}
	fmt.Fprintf(w, "\n%d improved, %d unchanged, %d worse, %d unresolved\n",
		counts[improved], counts[unchanged], counts[worse], counts[unresolved])
	return counts[worse] > 0, nil
}

// exactCounts are the layer metrics that are counts made by the program
// on the single-client traced pass: equal inputs give equal values.
var exactCounts = []string{
	"core_derivations", "core_inserted", "core_scanned", "core_iterations", "core_id_relations",
	"relation_indexed_tuples", "relation_partitioned_tuples", "wal_appends",
}

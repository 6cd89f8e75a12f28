package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"idlog/internal/relation"
	"idlog/internal/value"
)

// colouringSrc is guess-and-check 3-colouring: one colour per node by
// the tid-0 ID-literal, then the monochrome-edge check.
const colouringSrc = `
	col(N, C) :- cand[1](N, C, 0).
	conflict(X, Y) :- edge(X, Y), col(X, C), col(Y, C).
	bad(yes) :- conflict(X, Y), ok(yes).
	proper(yes) :- ok(yes), not bad(yes).
`

// colouringDB builds a colouring input of 300 nodes, three candidate
// colours each, and 600 edges (every node has two successors).
func colouringDB(frozen bool) *Database {
	db := NewDatabase()
	for n := int64(0); n < 300; n++ {
		for _, c := range []string{"red", "green", "blue"} {
			_ = db.Add("cand", value.Tuple{value.Int(n), value.Str(c)})
		}
		_ = db.Add("edge", value.Ints(n, (n+1)%300))
		_ = db.Add("edge", value.Ints(n, (n*7+3)%300))
	}
	_ = db.Add("ok", value.Strs("yes"))
	if frozen {
		db.Freeze()
	}
	return db
}

// planLine returns the "plan:" line ExplainPlan renders for the clause
// whose source starts with head.
func planLine(t *testing.T, out, head string) string {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "clause "+head) && i+1 < len(lines) {
			return strings.TrimSpace(lines[i+1])
		}
	}
	t.Fatalf("no clause %s in:\n%s", head, out)
	return ""
}

// TestDistinctCountsOrderTheColouringCheck: over a frozen database the
// planner prices edge(X, Y) with X bound at |edge| / ndv(edge.0) = 2
// rows, below col(Y, C) with C bound (~17 by the fallback formula, as
// col is derived and mutable), so the check probes edges before the
// second colour. The same data unfrozen has no counts and plans as the
// fallback formula always did: col ⋈ col.
func TestDistinctCountsOrderTheColouringCheck(t *testing.T) {
	info := mustAnalyze(t, colouringSrc)
	opts := Options{Oracle: relation.RandomOracle{Seed: 7}}
	for _, c := range []struct {
		frozen bool
		want   string
	}{
		{true, "plan: col(X, C) [scan ~300] ; edge(X, Y) [probe (0) ~2 ndv 300] ; col(Y, C) [probe (0,1) ~1]"},
		{false, "plan: col(X, C) [scan ~300] ; col(Y, C) [probe (1) ~17] ; edge(X, Y) [probe (0,1) ~1]"},
	} {
		out, err := ExplainPlan(info, colouringDB(c.frozen), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := planLine(t, out, "conflict"); got != c.want {
			t.Errorf("frozen=%v: conflict planned as\n  %s\nwant\n  %s", c.frozen, got, c.want)
		}
	}
	// Same answers either way, and the planned order scans less.
	var scanned [2]int
	var conflicts [2]string
	for i, frozen := range []bool{true, false} {
		res, err := Eval(info, colouringDB(frozen), opts)
		if err != nil {
			t.Fatal(err)
		}
		scanned[i], conflicts[i] = res.Stats.TuplesScanned, res.Relation("conflict").Fingerprint()
	}
	if conflicts[0] != conflicts[1] {
		t.Fatal("conflict differs between the frozen and the unfrozen database")
	}
	if scanned[0] >= scanned[1] {
		t.Fatalf("frozen plan scanned %d tuples, unfrozen %d", scanned[0], scanned[1])
	}
}

// countingSource is a TupleSource that counts the tuple reads the
// relation above it makes.
type countingSource struct {
	tuples     []value.Tuple
	ats, scans atomic.Int64
}

func (s *countingSource) Len() int { return len(s.tuples) }
func (s *countingSource) At(i int) value.Tuple {
	s.ats.Add(1)
	return s.tuples[i]
}
func (s *countingSource) HashAt(i int) uint64 { return s.tuples[i].Hash() }
func (s *countingSource) Scan(lo, hi int, fn func(int, value.Tuple) bool) bool {
	s.scans.Add(1)
	for i := lo; i < hi; i++ {
		if !fn(i, s.tuples[i]) {
			return false
		}
	}
	return true
}

// TestPlanningReadsNoSourceTuple: a frozen relation over a TupleSource
// (a disk segment, here a counting stand-in) keeps the fallback formula,
// so compiling every component's plan reads none of its tuples. Its
// in-memory twin is priced from distinct counts.
func TestPlanningReadsNoSourceTuple(t *testing.T) {
	info := mustAnalyze(t, colouringSrc)
	src := &countingSource{}
	for n := int64(0); n < 300; n++ {
		src.tuples = append(src.tuples, value.Ints(n, (n+1)%300), value.Ints(n, (n*7+3)%300))
	}
	stored := relation.NewStored("edge", 2, src).Freeze()
	col := relation.New("col", 2) // derived, so mutable: fallback formula
	for n := int64(0); n < 300; n++ {
		col.MustInsert(value.Tuple{value.Int(n), value.Str("red")})
	}
	for _, edge := range []*relation.Relation{stored, relation.FromTuples("edge", 2, src.tuples...).Freeze()} {
		var plans strings.Builder
		for _, s := range info.Strata {
			for _, c := range s.Components {
				in := map[string]bool{}
				for _, p := range c.Preds {
					in[p] = true
				}
				card := snapshotCard(c.Clauses, in, map[string]*relation.Relation{"edge": edge, "col": col}, nil)
				sp, err := compileComponentPlan(c, func(p string) bool { return in[p] }, card)
				if err != nil {
					t.Fatal(err)
				}
				explainComponent(&plans, sp)
			}
		}
		if got, want := strings.Contains(plans.String(), "ndv"), edge != stored; got != want {
			t.Fatalf("TupleSource-backed %v: distinct count rendered %v:\n%s", edge == stored, got, plans.String())
		}
	}
	if a, s := src.ats.Load(), src.scans.Load(); a != 0 || s != 0 {
		t.Fatalf("planning read the source: %d At, %d Scan calls", a, s)
	}
}

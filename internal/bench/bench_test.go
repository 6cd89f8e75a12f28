package bench

import (
	"strings"
	"testing"
)

// TestQuickSuiteRuns executes every experiment at a tiny size and
// checks the tables are structurally sound; the experiments panic
// internally on any correctness violation (answer mismatch, incomplete
// sample family, ...), so this test also certifies the claims at small
// scale.
func TestQuickSuiteRuns(t *testing.T) {
	suite := Suite{
		E1Sizes:      [][2]int{{3, 4}},
		E1Seeds:      5,
		E2Sizes:      [][2]int{{5, 20}},
		E3Workloads:  [][2]int{{10, 4}},
		E4Sizes:      [][2]int{{4, 10}},
		E5Steps:      []int{4},
		E6Chains:     []int{16},
		E6Grids:      []int{4},
		E7Persons:    []int{3},
		E8Persons:    []int{2},
		E9Persons:    []int{2},
		E10Sizes:     []int{5},
		E10Seeds:     3,
		E11Reps:      3,
		E11Chain:     16,
		E11Grid:      4,
		E11Emp:       [2]int{3, 6},
		E13Workers:   []int{1, 2, 4},
		E13Reps:      2,
		E13Grid:      4,
		E13Chain:     16,
		E13Emp:       [2]int{3, 6},
		E14Chain:     16,
		E14Grid:      4,
		E14Persons:   8,
		E14Emp:       [2]int{2, 4},
		E14PGraph:    12,
		E15Reps:      2,
		E15JoinSizes: []int{256},
		E15Chains:    []int{16},
		E16Sizes:     []int{512},
		E16CacheKBs:  []int{16, 1024},
		E16Reps:      2,
		E17Reps:      2,
		E17Repeats:   3,
		E17Rules:     []int{8},
		E18Reps:      2,
		E18Chains:    []int{80},
		E18Branch:    2,
	}
	tables := Run(suite, "all")
	if len(tables) != 17 {
		t.Fatalf("ran %d experiments, want 17", len(tables))
	}
	ids := map[string]bool{}
	for _, tab := range tables {
		ids[tab.ID] = true
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", tab.ID)
		}
		for _, r := range tab.Rows {
			if len(r) != len(tab.Columns) {
				t.Errorf("%s: row %v does not match columns %v", tab.ID, r, tab.Columns)
			}
		}
		out := tab.Render()
		if !strings.Contains(out, tab.ID) || !strings.Contains(out, "claim:") {
			t.Errorf("%s render missing header: %q", tab.ID, out[:60])
		}
	}
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E13", "E14", "E15", "E16", "E17", "E18"} {
		if !ids[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestRunFilter(t *testing.T) {
	suite := Suite{E6Chains: []int{8}}
	tables := Run(suite, "E6")
	if len(tables) != 1 || tables[0].ID != "E6" {
		t.Fatalf("filter returned %v", tables)
	}
	if got := Run(suite, "E99"); len(got) != 0 {
		t.Fatalf("bogus filter returned %d tables", len(got))
	}
}

func TestWorkloadGenerators(t *testing.T) {
	if db := EmpDB(3, 4); db.Relation("emp").Len() != 12 {
		t.Fatalf("EmpDB size")
	}
	if db := ChainDB(10); db.Relation("e").Len() != 10 {
		t.Fatalf("ChainDB size")
	}
	if db := ChainFanDB(5, 3); db.Relation("p").Len() != 5*4 {
		t.Fatalf("ChainFanDB size")
	}
	// grid g=3: 2*g*(g-1) edges
	if db := GridDB(3); db.Relation("e").Len() != 12 {
		t.Fatalf("GridDB size = %d", db.Relation("e").Len())
	}
}

func TestPresets(t *testing.T) {
	q, f := Quick(), Full()
	if len(q.E1Sizes) == 0 || len(f.E1Sizes) <= len(q.E1Sizes)-1 {
		t.Fatalf("presets look wrong")
	}
}

func TestRenderMarkdown(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "demo", Claim: "c",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n"},
	}
	md := tab.RenderMarkdown()
	for _, want := range []string{"## EX — demo", "| a | b |", "|---|---|", "| 1 | 2 |", "*n*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

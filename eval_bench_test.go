package idlog

import (
	"fmt"
	"math/rand"
	"testing"
)

// tcGrid returns a frozen database whose e relation is an n×n grid with
// an edge in both directions between horizontal and vertical
// neighbours, 5 % of the directed edges rewired to a random target, and
// the nodes relabelled by a seeded permutation: the shape of the
// benchmark's batch_tc inputs. The symmetric base keeps the grid
// strongly connected, so the closure is all n²·n² pairs.
func tcGrid(tb testing.TB, seed int64, n int) *Database {
	rng := rand.New(rand.NewSource(seed))
	label := rng.Perm(n * n)
	db := NewDatabase()
	add := func(a, b int) {
		if rng.Float64() < 0.05 {
			b = rng.Intn(n * n)
		}
		if err := db.Add("e", Ints(int64(label[a]), int64(label[b]))); err != nil {
			tb.Fatal(err)
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := r*n + c
			if c+1 < n {
				add(v, v+1)
				add(v+1, v)
			}
			if r+1 < n {
				add(v, v+n)
				add(v+n, v)
			}
		}
	}
	db.Freeze()
	return db
}

const tcProgram = "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, Z), e(Z, Y).\n"

// BenchmarkEvalTC evaluates left-linear transitive closure with
// Program.Eval over 8 seeded 12×12 grids, cycled: one operation of the
// batch_tc workload, in process.
func BenchmarkEvalTC(b *testing.B) {
	prog, err := Parse(tcProgram)
	if err != nil {
		b.Fatal(err)
	}
	dbs := make([]*Database, 8)
	for i := range dbs {
		dbs[i] = tcGrid(b, int64(i+1), 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Eval(dbs[i%len(dbs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEvalTCAllocs bounds the allocations of one 12×12 grid's closure.
// A derived tuple is copied into its relation's value arena, so the
// count is set by chunks, tables and per-round structures, not by the
// 20 736 tuples of the closure: storing each tuple as a heap object of
// its own took about 21 100.
func TestEvalTCAllocs(t *testing.T) {
	prog, err := Parse(tcProgram)
	if err != nil {
		t.Fatal(err)
	}
	db := tcGrid(t, 1, 12)
	res, err := prog.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Relation("tc").Len(); n != 144*144 {
		t.Fatalf("tc has %d tuples, want %d", n, 144*144)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := prog.Eval(db); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Fatalf("one evaluation made %.0f allocations, want ≤ 2000", allocs)
	}
	t.Logf("%.0f allocations per evaluation", allocs)
}

// liveProgram is the live view's program of the serve_mixed workload:
// transitive closure plus the nodes below one watched root.
const liveProgram = "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\nwatch(Y) :- tc(c16_0, Y).\n"

// BenchmarkViewApply maintains the serve_mixed live view in process:
// 32 chains of 32 nodes with three leaves per node (the workload's
// forest), and a fixed cycle of one-edge writes through LiveView.Apply
// at 16 seeded sites in the first half of the chains. At a site a→b→c,
// one cycle inserts the skip a→c, deletes b→c (DRed overdeletes what
// b reached through c, then rederives it through the skip), reinserts
// b→c and deletes the skip, so the view returns to where it started.
// One operation is one Apply.
func BenchmarkViewApply(b *testing.B) {
	const chains, nodes, leaves = 32, 32, 3
	prog, err := Parse(liveProgram)
	if err != nil {
		b.Fatal(err)
	}
	node := func(c, i int) string { return fmt.Sprintf("c%d_%d", c, i) }
	db := NewDatabase()
	for c := 0; c < chains; c++ {
		for i := 0; i < nodes; i++ {
			if i+1 < nodes {
				if err := db.Add("edge", Strs(node(c, i), node(c, i+1))); err != nil {
					b.Fatal(err)
				}
			}
			for l := 0; l < leaves; l++ {
				if err := db.Add("edge", Strs(node(c, i), fmt.Sprintf("l%d_%d_%d", c, i, l))); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	db.Freeze()
	lv, err := prog.NewLiveView(db)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	type write struct{ ins, del []Fact }
	var cycle []write
	for s := 0; s < 16; s++ {
		c, i := rng.Intn(chains/2), nodes*5/8+rng.Intn(nodes/4)
		skip := []Fact{{Pred: "edge", Tuple: Strs(node(c, i), node(c, i+2))}}
		link := []Fact{{Pred: "edge", Tuple: Strs(node(c, i+1), node(c, i+2))}}
		cycle = append(cycle, write{ins: skip}, write{del: link}, write{ins: link}, write{del: skip})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := cycle[i%len(cycle)]
		if _, _, err := lv.Apply(w.ins, w.del); err != nil {
			b.Fatal(err)
		}
	}
}

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

// liveForest returns a live view of liveProgram over serve_mixed's
// forest: 32 chains of 32 nodes with three leaves per node.
func liveForest(b *testing.B) *LiveView {
	prog, err := Parse(liveProgram)
	if err != nil {
		b.Fatal(err)
	}
	db := NewDatabase()
	for c := 0; c < forestChains; c++ {
		for i := 0; i < forestNodes; i++ {
			if i+1 < forestNodes {
				if err := db.Add("edge", Strs(forestNode(c, i), forestNode(c, i+1))); err != nil {
					b.Fatal(err)
				}
			}
			for l := 0; l < 3; l++ {
				if err := db.Add("edge", Strs(forestNode(c, i), forestLeaf(c, i, l))); err != nil {
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
	return lv
}

const forestChains, forestNodes = 32, 32

func forestNode(c, i int) string    { return fmt.Sprintf("c%d_%d", c, i) }
func forestLeaf(c, i, l int) string { return fmt.Sprintf("l%d_%d_%d", c, i, l) }

// liveWrite is one Apply of a live-view benchmark.
type liveWrite struct{ ins, del []Fact }

func edges(pairs ...[2]string) []Fact {
	out := make([]Fact, len(pairs))
	for i, p := range pairs {
		out[i] = Fact{Pred: "edge", Tuple: Strs(p[0], p[1])}
	}
	return out
}

// runLiveWrites applies writes in a loop, one Apply per operation, and
// reports the deletion candidates checked and those proved to survive
// per operation.
func runLiveWrites(b *testing.B, lv *LiveView, writes []liveWrite) {
	var cands, survived int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := writes[i%len(writes)]
		_, up, err := lv.Apply(w.ins, w.del)
		if err != nil {
			b.Fatal(err)
		}
		cands += up.Overdeleted
		survived += up.Rederived
	}
	b.ReportMetric(float64(cands)/float64(b.N), "overdeleted/op")
	b.ReportMetric(float64(survived)/float64(b.N), "rederived/op")
}

// BenchmarkViewApply maintains the serve_mixed live view in process: a
// fixed cycle of one-edge writes through LiveView.Apply at 16 seeded
// sites in the first half of the chains. At a site a→b→c, one cycle
// inserts the skip a→c, deletes b→c (what b reached through c becomes a
// deletion candidate; what the skip still reaches survives its check),
// reinserts b→c and deletes the skip, so the view returns to where it
// started. One operation is one Apply.
func BenchmarkViewApply(b *testing.B) {
	lv := liveForest(b)
	rng := rand.New(rand.NewSource(1))
	var cycle []liveWrite
	for s := 0; s < 16; s++ {
		c, i := rng.Intn(forestChains/2), forestNodes*5/8+rng.Intn(forestNodes/4)
		skip := edges([2]string{forestNode(c, i), forestNode(c, i+2)})
		link := edges([2]string{forestNode(c, i+1), forestNode(c, i+2)})
		cycle = append(cycle, liveWrite{ins: skip}, liveWrite{del: link}, liveWrite{ins: link}, liveWrite{del: skip})
	}
	runLiveWrites(b, lv, cycle)
}

// BenchmarkViewApplyCycle is serve_mixed's writer in process: its
// four-step cycle at 64 seeded sites of the forest's first half, one
// Apply per operation. At a site a→b→c the cycle inserts the skip a→c
// and a private chain a→x→y→z; cuts a→b and one leaf of b and hangs
// b→q→r; undoes the cut; undoes the skip.
func BenchmarkViewApplyCycle(b *testing.B) {
	lv := liveForest(b)
	rng := rand.New(rand.NewSource(1))
	var cycle []liveWrite
	for k := 0; k < 64; k++ {
		c, i := rng.Intn(forestChains/2), forestNodes*5/8+(k*7)%(forestNodes/4)
		a, bb, cc := forestNode(c, i), forestNode(c, i+1), forestNode(c, i+2)
		x, y, z := fmt.Sprintf("x%d", k), fmt.Sprintf("y%d", k), fmt.Sprintf("z%d", k)
		q, r := fmt.Sprintf("q%d", k), fmt.Sprintf("r%d", k)
		grow := edges([2]string{a, cc}, [2]string{a, x}, [2]string{x, y}, [2]string{y, z})
		cut := edges([2]string{a, bb}, [2]string{bb, forestLeaf(c, i+1, 0)})
		hang := edges([2]string{bb, q}, [2]string{q, r})
		cycle = append(cycle, liveWrite{ins: grow}, liveWrite{ins: hang, del: cut}, liveWrite{ins: cut, del: hang}, liveWrite{del: grow})
	}
	runLiveWrites(b, lv, cycle)
}

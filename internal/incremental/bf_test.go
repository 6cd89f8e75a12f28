package incremental

import (
	"fmt"
	"testing"

	"idlog/internal/core"
	"idlog/internal/relation"
	"idlog/internal/value"
)

const (
	tcLeft  = "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, Z), e(Z, Y).\n"
	tcRight = "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- e(X, Z), tc(Z, Y).\n"
)

// edgeView returns a view of src over the e edges given as name pairs.
func edgeView(t *testing.T, src string, edges ...[2]string) *View {
	t.Helper()
	db := core.NewDatabase()
	for _, e := range edges {
		if err := db.Add("e", value.Strs(e[0], e[1])); err != nil {
			t.Fatal(err)
		}
	}
	v, err := NewView(mustInfo(t, src), db.Freeze(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDeletionMutualSupport deletes the one edge that supports a cycle
// of facts which would otherwise prove each other. A check that proves
// a fact from one instance whose body facts still stand, without
// checking those facts in turn, keeps the cycle.
func TestDeletionMutualSupport(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		edges     [][2]string
		del       [2]string
		gone      [][2]string
	}{
		// A cycle entered by one edge: tc(r, a) and tc(r, b) support each
		// other through a→b and b→a under the left-linear rule.
		{"left entered", tcLeft, [][2]string{{"r", "a"}, {"a", "b"}, {"b", "a"}}, [2]string{"r", "a"}, [][2]string{{"r", "a"}, {"r", "b"}}},
		{"right entered", tcRight, [][2]string{{"r", "a"}, {"a", "b"}, {"b", "a"}}, [2]string{"r", "a"}, [][2]string{{"r", "a"}, {"r", "b"}}},
		// A cycle left by one edge: tc(a, s) and tc(b, s) support each
		// other under the right-linear rule.
		{"right left", tcRight, [][2]string{{"a", "b"}, {"b", "a"}, {"b", "s"}}, [2]string{"b", "s"}, [][2]string{{"a", "s"}, {"b", "s"}}},
		{"left left", tcLeft, [][2]string{{"a", "b"}, {"b", "a"}, {"b", "s"}}, [2]string{"b", "s"}, [][2]string{{"a", "s"}, {"b", "s"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := edgeView(t, tc.src, tc.edges...)
			_, up, err := v.ApplyFacts(nil, facts("e", value.Strs(tc.del[0], tc.del[1])), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range tc.gone {
				if v.Relation("tc").Contains(value.Strs(g[0], g[1])) {
					t.Errorf("tc(%s, %s) kept after deleting e(%s, %s): %+v", g[0], g[1], tc.del[0], tc.del[1], up)
				}
			}
			checkEquiv(t, tc.name, v, core.Options{})
		})
	}
}

// TestDeletionProofReachesFailedCheck deletes the base facts of p(x)
// and q(x), which support each other. q(x), a candidate first, recurses
// into p(x), which fails while q(x) is on the check stack; q(x) is then
// proved through qa(x), and the proof must run forward into p(x), or
// p(x) is removed when it becomes a candidate.
func TestDeletionProofReachesFailedCheck(t *testing.T) {
	info := mustInfo(t, `
		q(X) :- qb(X).
		q(X) :- p(X).
		q(X) :- qa(X).
		p(X) :- pb(X).
		p(X) :- q(X).
	`)
	db := core.NewDatabase()
	for _, pred := range []string{"qb", "qa", "pb"} {
		_ = db.Add(pred, value.Strs("x"))
	}
	v, err := NewView(info, db.Freeze(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, up, err := v.ApplyFacts(nil, append(facts("qb", value.Strs("x")), facts("pb", value.Strs("x"))...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Relation("p").Contains(value.Strs("x")) {
		t.Fatalf("p(x) removed though q(x) still derives it: %+v", up)
	}
	checkEquiv(t, "p-q", v, core.Options{})
}

// TestDeletionLaterComponentSeesEarlierDeletions deletes the watched
// root's only out-edge. watch is a later component of tc's stratum, and
// tc's disproved facts are still in its relation while watch is
// maintained: watch's checks must read them as absent.
func TestDeletionLaterComponentSeesEarlierDeletions(t *testing.T) {
	v := edgeView(t, tcLeft+"watch(Y) :- tc(r, Y).\n",
		[2]string{"r", "a"}, [2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"s", "a"})
	_, up, err := v.ApplyFacts(nil, facts("e", value.Strs("r", "a")), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := v.Relation("watch").Len(); n != 0 {
		t.Fatalf("watch keeps %d facts after its root lost its only edge: %s (%+v)", n, v.Relation("watch"), up)
	}
	checkEquiv(t, "watch", v, core.Options{})
}

// TestDeletionCountsServeMixedSite runs the serve_mixed writer cycle on
// one site of its forest (chains of 32 nodes with three leaves each, the
// site at position 20 of chain 0) and pins the candidates, survivors and
// removals of the two deleting steps, each under 200. Overdelete-then-
// rederive overdeleted 925 and 906 tuples here and put 840 back each
// time.
func TestDeletionCountsServeMixedSite(t *testing.T) {
	const chains, nodes, leaves, pos = 2, 32, 3, 20
	node := func(c, i int) string { return fmt.Sprintf("c%d_%d", c, i) }
	leaf := func(c, i, l int) string { return fmt.Sprintf("l%d_%d_%d", c, i, l) }
	var edges [][2]string
	for c := 0; c < chains; c++ {
		for i := 0; i < nodes; i++ {
			if i+1 < nodes {
				edges = append(edges, [2]string{node(c, i), node(c, i+1)})
			}
			for l := 0; l < leaves; l++ {
				edges = append(edges, [2]string{node(c, i), leaf(c, i, l)})
			}
		}
	}
	v := edgeView(t, "tc(X, Y) :- e(X, Y).\ntc(X, Y) :- tc(X, Z), e(Z, Y).\nwatch(Y) :- tc(c1_0, Y).\n", edges...)
	es := func(pairs ...[2]string) []core.Fact {
		out := make([]core.Fact, len(pairs))
		for i, p := range pairs {
			out[i] = core.Fact{Pred: "e", Tuple: value.Strs(p[0], p[1])}
		}
		return out
	}
	a, b, c := node(0, pos), node(0, pos+1), node(0, pos+2)
	grow := es([2]string{a, c}, [2]string{a, "x"}, [2]string{"x", "y"}, [2]string{"y", "z"})
	cut := es([2]string{a, b}, [2]string{b, leaf(0, pos+1, 0)})
	hang := es([2]string{b, "q"}, [2]string{"q", "r"})
	steps := []struct{ ins, del []core.Fact }{{grow, nil}, {hang, cut}, {cut, hang}, {nil, grow}}
	// want pins steps 1 and 3: candidates, candidates proved to survive,
	// and removals.
	want := map[int][3]int{1: {106, 21, 85}, 3: {87, 21, 66}}
	for i, s := range steps {
		_, up, err := v.ApplyFacts(s.ins, s.del, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkEquiv(t, fmt.Sprintf("step %d", i), v, core.Options{})
		w, ok := want[i]
		if !ok {
			continue
		}
		got := [3]int{up.Overdeleted, up.Rederived, up.Overdeleted - up.Rederived}
		if got != w {
			t.Errorf("step %d: candidates, survivors, removals = %v, want %v", i, got, w)
		}
		for _, n := range got {
			if n >= 200 {
				t.Errorf("step %d: %v reaches 200", i, got)
			}
		}
	}
}

// fuzzPrograms is FuzzViewApply's pool: cyclic transitive closure both
// ways, two predicates in one component, two components in one stratum,
// and a stratum reading a changed lower stratum beside a negation.
var fuzzPrograms = []struct{ src, extra string }{
	{tcLeft, ""},
	{tcRight, ""},
	{"ev(X) :- start(X).\nod(Y) :- ev(X), e(X, Y).\nev(Y) :- od(X), e(X, Y).\n", "start"},
	{tcLeft + "watch(Y) :- tc(0, Y).\n", ""},
	{tcRight + "marked(X) :- m(X).\nfar(X, Y) :- tc(X, Y), not marked(Y).\nback(X, Y) :- tc(X, Y), tc(Y, X), not marked(Y).\n", "m"},
}

// FuzzViewApply maintains a view through a mutation script and checks
// it against a from-scratch evaluation after every step. The first byte
// picks a program from fuzzPrograms, the second the number of initial
// edges, which the next bytes give (a node per nibble, six nodes). The
// rest is the script, up to 12 steps: a step is a count byte and that
// many mutation bytes, each an insertion or deletion (bit 7) of an edge or, when bit 6
// is set and the program has one, of a unary fact of its other EDB
// predicate.
func FuzzViewApply(f *testing.F) {
	f.Add([]byte{0, 3, 0x01, 0x12, 0x21, 0, 0x81})
	f.Add([]byte{1, 4, 0x01, 0x12, 0x21, 0x23, 1, 0x81, 0x0b})
	f.Add([]byte{2, 3, 0x01, 0x12, 0x20, 1, 0x8a, 0, 0x0a})
	f.Add([]byte{3, 4, 0x01, 0x12, 0x23, 0x30, 0, 0x81, 0, 0x01})
	f.Add([]byte{4, 4, 0x01, 0x10, 0x12, 0x21, 1, 0x88, 0xc1, 0, 0x41})
	// The script's length is capped so an execution stays cheap for the
	// fuzzer's input minimization.
	const nodes, maxSteps = 6, 12
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		pr := fuzzPrograms[int(data[0])%len(fuzzPrograms)]
		info := mustInfo(t, pr.src)
		n := int(data[1]) % 16
		data = data[2:]
		db := core.NewDatabase()
		db.SetRelation("e", relation.New("e", 2))
		for ; n > 0 && len(data) > 0; n-- {
			b := data[0]
			data = data[1:]
			_ = db.Add("e", value.Ints(int64(b>>4)%nodes, int64(b&15)%nodes))
		}
		if pr.extra != "" {
			_ = db.Add(pr.extra, value.Ints(0))
		}
		opts := core.Options{}
		v, err := NewView(info, db.Freeze(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < maxSteps && len(data) > 0; step++ {
			count := int(data[0])%3 + 1
			data = data[1:]
			var ins, del []core.Fact
			for ; count > 0 && len(data) > 0; count-- {
				b := data[0]
				data = data[1:]
				f := core.Fact{Pred: "e", Tuple: value.Ints(int64(b>>3&7)%nodes, int64(b&7)%nodes)}
				if b&0x40 != 0 && pr.extra != "" {
					f = core.Fact{Pred: pr.extra, Tuple: value.Ints(int64(b&7) % nodes)}
				}
				if b&0x80 != 0 {
					del = append(del, f)
				} else {
					ins = append(ins, f)
				}
			}
			if _, _, err := v.ApplyFacts(ins, del, nil); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkEquiv(t, fmt.Sprintf("step %d", step), v, opts)
		}
	})
}

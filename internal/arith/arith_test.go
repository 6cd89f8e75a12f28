package arith

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"idlog/internal/value"
)

// names returns all builtin names, sorted.
func names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func iv(ns ...int64) []value.Value {
	out := make([]value.Value, len(ns))
	for i, n := range ns {
		out[i] = value.Int(n)
	}
	return out
}

func mask(s string) []bool {
	out := make([]bool, len(s))
	for i := range s {
		out[i] = s[i] == 'b'
	}
	return out
}

func solve(t *testing.T, name string, args []value.Value, pattern string) [][]value.Value {
	t.Helper()
	b, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown builtin %s", name)
	}
	sols, err := b.Solve(args, mask(pattern))
	if err != nil {
		t.Fatalf("%s%v/%s: %v", name, args, pattern, err)
	}
	return sols
}

func TestRegistryNames(t *testing.T) {
	for _, n := range []string{"succ", "add", "sub", "mul", "div", "mod", "lt", "le", "gt", "ge", "eq", "neq"} {
		if !IsBuiltin(n) {
			t.Errorf("missing builtin %s", n)
		}
	}
	if IsBuiltin("emp") {
		t.Errorf("emp should not be a builtin")
	}
	if len(names()) != 12 {
		t.Errorf("names() = %v", names())
	}
}

func TestSucc(t *testing.T) {
	if got := solve(t, "succ", iv(3, 4), "bb"); len(got) != 1 {
		t.Fatalf("succ(3,4) failed")
	}
	if got := solve(t, "succ", iv(3, 5), "bb"); len(got) != 0 {
		t.Fatalf("succ(3,5) should fail")
	}
	got := solve(t, "succ", iv(3, 0), "bn")
	if len(got) != 1 || got[0][1].Num != 4 {
		t.Fatalf("succ(3,N) = %v", got)
	}
	got = solve(t, "succ", iv(0, 4), "nb")
	if len(got) != 1 || got[0][0].Num != 3 {
		t.Fatalf("succ(N,4) = %v", got)
	}
	if got := solve(t, "succ", iv(0, 0), "nb"); len(got) != 0 {
		t.Fatalf("succ(N,0) should have no natural solution, got %v", got)
	}
}

func TestAddPatterns(t *testing.T) {
	if got := solve(t, "add", iv(2, 3, 5), "bbb"); len(got) != 1 {
		t.Fatalf("add(2,3,5) failed")
	}
	if got := solve(t, "add", iv(2, 3, 6), "bbb"); len(got) != 0 {
		t.Fatalf("add(2,3,6) should fail")
	}
	if got := solve(t, "add", iv(2, 3, 0), "bbn"); got[0][2].Num != 5 {
		t.Fatalf("add(2,3,C) = %v", got)
	}
	if got := solve(t, "add", iv(2, 0, 5), "bnb"); got[0][1].Num != 3 {
		t.Fatalf("add(2,B,5) = %v", got)
	}
	if got := solve(t, "add", iv(7, 0, 5), "bnb"); len(got) != 0 {
		t.Fatalf("add(7,B,5) should have no natural solution")
	}
	if got := solve(t, "add", iv(0, 3, 5), "nbb"); got[0][0].Num != 2 {
		t.Fatalf("add(A,3,5) = %v", got)
	}
}

func TestAddEnumerationNNB(t *testing.T) {
	// The paper's example: L + M = 1 has exactly the solutions (0,1),(1,0).
	got := solve(t, "add", iv(0, 0, 1), "nnb")
	if len(got) != 2 {
		t.Fatalf("add(L,M,1) enumerated %d solutions, want 2: %v", len(got), got)
	}
	for _, s := range got {
		if s[0].Num+s[1].Num != 1 {
			t.Fatalf("bad solution %v", s)
		}
	}
	// Unsafe pattern: first occurrence of + in the paper's example,
	// 1 + L = M, is pattern bnn and must be rejected.
	b, _ := Lookup("add")
	if _, err := b.Solve(iv(1, 0, 0), mask("bnn")); err == nil {
		t.Fatalf("add with pattern bnn should be rejected as unsafe")
	}
}

func TestSub(t *testing.T) {
	if got := solve(t, "sub", iv(5, 3, 2), "bbb"); len(got) != 1 {
		t.Fatalf("sub(5,3,2) failed")
	}
	if got := solve(t, "sub", iv(3, 5, 0), "bbn"); len(got) != 0 {
		t.Fatalf("natural sub(3,5,C) should fail, got %v", got)
	}
	if got := solve(t, "sub", iv(0, 3, 2), "nbb"); got[0][0].Num != 5 {
		t.Fatalf("sub(A,3,2) = %v", got)
	}
	if got := solve(t, "sub", iv(5, 0, 2), "bnb"); got[0][1].Num != 3 {
		t.Fatalf("sub(5,B,2) = %v", got)
	}
}

func TestMul(t *testing.T) {
	if got := solve(t, "mul", iv(3, 4, 12), "bbb"); len(got) != 1 {
		t.Fatalf("mul(3,4,12) failed")
	}
	if got := solve(t, "mul", iv(3, 0, 12), "bnb"); got[0][1].Num != 4 {
		t.Fatalf("mul(3,B,12) = %v", got)
	}
	if got := solve(t, "mul", iv(3, 0, 13), "bnb"); len(got) != 0 {
		t.Fatalf("mul(3,B,13) should fail (not divisible)")
	}
	got := solve(t, "mul", iv(0, 0, 12), "nnb")
	if len(got) != 6 { // (1,12),(12,1),(2,6),(6,2),(3,4),(4,3)
		t.Fatalf("mul(A,B,12) enumerated %d solutions, want 6: %v", len(got), got)
	}
	// Perfect square: divisors counted once.
	got = solve(t, "mul", iv(0, 0, 9), "nnb")
	if len(got) != 3 { // (1,9),(9,1),(3,3)
		t.Fatalf("mul(A,B,9) enumerated %d solutions, want 3: %v", len(got), got)
	}
}

func TestMulUnboundedZeroCases(t *testing.T) {
	b, _ := Lookup("mul")
	if _, err := b.Solve(iv(0, 0, 0), mask("nnb")); err == nil {
		t.Fatalf("mul(A,B,0) must be reported unbounded")
	}
	if _, err := b.Solve(iv(0, 0, 0), mask("bnb")); err == nil {
		t.Fatalf("mul(0,B,0) must be reported unbounded")
	}
	// mul(0,B,5) has no solutions but is bounded.
	if got, err := b.Solve(iv(0, 0, 5), mask("bnb")); err != nil || len(got) != 0 {
		t.Fatalf("mul(0,B,5): %v %v", got, err)
	}
}

func TestDiv(t *testing.T) {
	if got := solve(t, "div", iv(7, 2, 3), "bbb"); len(got) != 1 {
		t.Fatalf("div(7,2,3) failed")
	}
	if got := solve(t, "div", iv(7, 2, 0), "bbn"); got[0][2].Num != 3 {
		t.Fatalf("div(7,2,C) = %v", got)
	}
	// nbb: A div 3 = 2 ⇒ A ∈ {6,7,8}.
	got := solve(t, "div", iv(0, 3, 2), "nbb")
	if len(got) != 3 {
		t.Fatalf("div(A,3,2) = %v, want 3 solutions", got)
	}
	if got := solve(t, "div", iv(7, 0, 3), "bbb"); len(got) != 0 {
		t.Fatalf("division by zero should fail, got %v", got)
	}
}

func TestMod(t *testing.T) {
	if got := solve(t, "mod", iv(7, 3, 1), "bbb"); len(got) != 1 {
		t.Fatalf("mod(7,3,1) failed")
	}
	if got := solve(t, "mod", iv(7, 3, 0), "bbn"); got[0][2].Num != 1 {
		t.Fatalf("mod(7,3,C) = %v", got)
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		name  string
		a, b  int64
		holds bool
	}{
		{"lt", 1, 2, true}, {"lt", 2, 2, false},
		{"le", 2, 2, true}, {"le", 3, 2, false},
		{"gt", 3, 2, true}, {"gt", 2, 2, false},
		{"ge", 2, 2, true}, {"ge", 1, 2, false},
	}
	for _, c := range cases {
		got := solve(t, c.name, iv(c.a, c.b), "bb")
		if (len(got) == 1) != c.holds {
			t.Errorf("%s(%d,%d) = %v, want holds=%v", c.name, c.a, c.b, got, c.holds)
		}
	}
}

func TestEqPolymorphic(t *testing.T) {
	u := []value.Value{value.Str("a"), value.Str("a")}
	if got := solve(t, "eq", u, "bb"); len(got) != 1 {
		t.Fatalf("eq(a,a) failed on sort u")
	}
	cross := []value.Value{value.Str("a"), value.Int(1)}
	if got := solve(t, "eq", cross, "bb"); len(got) != 0 {
		t.Fatalf("eq across sorts should fail")
	}
	got := solve(t, "eq", []value.Value{value.Str("a"), {}}, "bn")
	if len(got) != 1 || !got[0][1].Equal(value.Str("a")) {
		t.Fatalf("eq(a,X) = %v", got)
	}
	if got := solve(t, "neq", []value.Value{value.Str("a"), value.Int(1)}, "bb"); len(got) != 1 {
		t.Fatalf("neq across sorts should hold")
	}
}

func TestSortUArgsFailArithmetic(t *testing.T) {
	b, _ := Lookup("add")
	got, err := b.Solve([]value.Value{value.Str("a"), value.Int(1), value.Int(2)}, mask("bbb"))
	if err != nil || len(got) != 0 {
		t.Fatalf("add with u-constant: got %v, %v; want silent failure", got, err)
	}
}

func TestArityMismatchRejected(t *testing.T) {
	b, _ := Lookup("add")
	if _, err := b.Solve(iv(1, 2), []bool{true, true}); err == nil {
		t.Fatalf("wrong arity not rejected")
	}
}

func TestPatternHelper(t *testing.T) {
	if Pattern([]bool{true, false, true}) != "bnb" {
		t.Fatalf("Pattern = %q", Pattern([]bool{true, false, true}))
	}
}

// Property: for every (a,b) the functional patterns agree with the
// checking pattern.
func TestAddConsistencyQuick(t *testing.T) {
	add, _ := Lookup("add")
	f := func(a, b uint8) bool {
		x, y := int64(a), int64(b)
		sols, err := add.Solve(iv(x, y, 0), mask("bbn"))
		if err != nil || len(sols) != 1 {
			return false
		}
		c := sols[0][2].Num
		chk, err := add.Solve(iv(x, y, c), mask("bbb"))
		return err == nil && len(chk) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulEnumerationSoundCompleteQuick(t *testing.T) {
	mul, _ := Lookup("mul")
	f := func(cRaw uint8) bool {
		c := int64(cRaw%50) + 1
		sols, err := mul.Solve(iv(0, 0, c), mask("nnb"))
		if err != nil {
			return false
		}
		// Soundness + count completeness by brute force.
		want := 0
		for a := int64(1); a <= c; a++ {
			if c%a == 0 {
				want++
			}
		}
		if len(sols) != want {
			return false
		}
		for _, s := range sols {
			if s[0].Num*s[1].Num != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDivIntervalPropertyQuick(t *testing.T) {
	div, _ := Lookup("div")
	f := func(bRaw, cRaw uint8) bool {
		b := int64(bRaw%9) + 1
		c := int64(cRaw % 20)
		sols, err := div.Solve(iv(0, b, c), mask("nbb"))
		if err != nil || int64(len(sols)) != b {
			return false
		}
		for _, s := range sols {
			if s[0].Num/b != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundCallsTestWithoutAllocating checks the compiled-literal path:
// a fully bound call answers through Holds with no allocation, agrees
// with Solve on every builtin, and a rejected pattern fails every call
// with the error text Solve reports.
func TestBoundCallsTestWithoutAllocating(t *testing.T) {
	vals := []value.Value{value.Int(0), value.Int(1), value.Int(3), value.Int(7), value.Int(-2), value.Str("a")}
	for _, name := range names() {
		b, _ := Lookup(name)
		full := make([]bool, b.Arity)
		for i := range full {
			full[i] = true
		}
		c := b.Bind(full)
		if !c.Full() {
			t.Fatalf("%s: fully bound call not Full", name)
		}
		args := make([]value.Value, b.Arity)
		var walk func(i int)
		walk = func(i int) {
			if i < len(args) {
				for _, v := range vals {
					args[i] = v
					walk(i + 1)
				}
				return
			}
			sols, err := b.Solve(args, full)
			ok, herr := c.Holds(args)
			if err != nil || herr != nil || ok != (len(sols) == 1) {
				t.Fatalf("%s%v: Holds = %v, %v; Solve = %v, %v", name, args, ok, herr, sols, err)
			}
			if ok && !slices.Equal(sols[0], args) {
				t.Fatalf("%s%v: Solve returned %v", name, args, sols[0])
			}
		}
		walk(0)
		args = append(args[:0], vals[:b.Arity]...)
		if n := testing.AllocsPerRun(100, func() { c.Holds(args) }); n != 0 {
			t.Fatalf("%s: Holds allocates %v times per call, want 0", name, n)
		}
	}
	lt, _ := Lookup("lt")
	_, want := lt.Solve(iv(1, 2), mask("bn"))
	c := lt.Bind(mask("bn"))
	if _, err := c.Solve(iv(1, 2)); want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("unsafe pattern: Call.Solve error %v, Solve error %v", err, want)
	}
	if _, err := c.Holds(iv(1, 2)); err == nil || err.Error() != want.Error() {
		t.Fatalf("unsafe pattern: Holds error %v, want %v", err, want)
	}
}

// Package arith implements IDLOG's interpreted predicates over the
// natural numbers (§2.2 of the paper): succ, the arithmetic relations
// add/sub/mul/div/mod, the comparisons, and sort-polymorphic equality.
//
// Each predicate declares its admissible binding patterns — strings of
// 'b' (bound) and 'n' (not bound) — following the paper's sufficient
// safety condition. For add (the paper's "+", read add(A,B,C) as A+B=C)
// the allowed patterns are bbb, bbn, bnb, nbb and nnb: the equation
// A+B=C has finitely many solutions whenever C is bound, even with both
// A and B free. The analyzer consults these tables when ordering clause
// bodies; the evaluator calls Solve to enumerate solutions at run time.
package arith

import (
	"fmt"
	"slices"
	"sort"

	"idlog/internal/value"
)

// Builtin describes one interpreted predicate.
type Builtin struct {
	// Name is the predicate name as written in programs.
	Name string
	// Arity is the number of arguments.
	Arity int
	// Patterns is the set of admissible binding patterns, each of length
	// Arity over the alphabet {b, n}.
	Patterns map[string]bool
	// Polymorphic marks predicates (eq, neq) that accept either sort;
	// all other built-ins require every bound argument to be of sort i.
	Polymorphic bool
	// holds tests a fully bound call; its bound arguments have the
	// right sorts.
	holds func(args []value.Value) bool
	// solve enumerates the full-arity solutions of a call whose
	// admissible pattern pat leaves some argument unbound; only the
	// arguments pat marks 'b' are meaningful. Nil when the only
	// admissible pattern binds every argument.
	solve func(args []value.Value, pat string) ([][]value.Value, error)
}

// Lookup returns the builtin for name.
func Lookup(name string) (*Builtin, bool) {
	b, ok := registry[name]
	return b, ok
}

// IsBuiltin reports whether name denotes an interpreted predicate.
func IsBuiltin(name string) bool {
	_, ok := registry[name]
	return ok
}

// Pattern builds the binding-pattern string for the given mask.
func Pattern(bound []bool) string {
	buf := make([]byte, len(bound))
	for i, b := range bound {
		if b {
			buf[i] = 'b'
		} else {
			buf[i] = 'n'
		}
	}
	return string(buf)
}

// Allowed reports whether the builtin admits the binding pattern.
func (b *Builtin) Allowed(pattern string) bool { return b.Patterns[pattern] }

// Solve enumerates solutions. It validates the binding pattern and the
// sorts of bound arguments, then delegates to the predicate's solver.
// The returned tuples have the builtin's full arity with every position
// filled.
func (b *Builtin) Solve(args []value.Value, bound []bool) ([][]value.Value, error) {
	if len(args) != b.Arity {
		return nil, fmt.Errorf("%s/%d: called with %d args", b.Name, b.Arity, len(args))
	}
	return b.Bind(bound).Solve(args)
}

// Call is a builtin under one binding pattern, checked once. A compiled
// literal's binding pattern is fixed, so it binds its builtin when it
// is compiled: no call then builds a pattern string or looks it up, and
// a fully bound call (a comparison filter, say) is a test, Holds, that
// allocates nothing.
type Call struct {
	b    *Builtin
	pat  string // over {b, n}
	full bool   // every argument bound
	err  error  // why the pattern is rejected; every call returns it
}

// Bind checks the binding pattern bound against b. A rejected pattern
// is not an error until the call is made, so a literal that never runs
// never fails.
func (b *Builtin) Bind(bound []bool) *Call {
	c := &Call{b: b, pat: Pattern(bound), full: !slices.Contains(bound, false)}
	switch {
	case len(bound) != b.Arity:
		c.err = fmt.Errorf("%s/%d: called with %d args", b.Name, b.Arity, len(bound))
	case !b.Patterns[c.pat]:
		c.err = fmt.Errorf("%s: binding pattern %s is unsafe (allowed: %s)", b.Name, c.pat, b.patternList())
	}
	return c
}

// Full reports whether the call binds every argument, so Holds applies.
func (c *Call) Full() bool { return c.full }

// Solve enumerates the solutions of the call under args, of which only
// the bound positions are read. The returned tuples have the builtin's
// full arity with every position filled.
func (c *Call) Solve(args []value.Value) ([][]value.Value, error) {
	if c.err != nil {
		return nil, c.err
	}
	if !c.sortsOK(args) {
		return nil, nil
	}
	if c.full {
		if c.b.holds(args) {
			return [][]value.Value{slices.Clone(args)}, nil
		}
		return nil, nil
	}
	return c.b.solve(args, c.pat)
}

// Holds reports whether args satisfy a Full call; it allocates nothing.
func (c *Call) Holds(args []value.Value) (bool, error) {
	if c.err != nil {
		return false, c.err
	}
	return c.sortsOK(args) && c.b.holds(args), nil
}

// sortsOK reports whether the bound arguments have the sorts the
// builtin accepts. A u-constant can never satisfy an arithmetic
// relation: that is a failed match, not an error.
func (c *Call) sortsOK(args []value.Value) bool {
	if c.b.Polymorphic {
		return true
	}
	for i := range args {
		if c.pat[i] == 'b' && !args[i].IsInt() {
			return false
		}
	}
	return true
}

func (b *Builtin) patternList() string {
	pats := make([]string, 0, len(b.Patterns))
	for p := range b.Patterns {
		pats = append(pats, p)
	}
	sort.Strings(pats)
	s := ""
	for i, p := range pats {
		if i > 0 {
			s += ","
		}
		s += p
	}
	return s
}

func pats(ps ...string) map[string]bool {
	m := make(map[string]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

func one(vals ...value.Value) [][]value.Value {
	return [][]value.Value{vals}
}

var registry = map[string]*Builtin{}

func register(b *Builtin) { registry[b.Name] = b }

func init() {
	register(&Builtin{
		Name: "succ", Arity: 2,
		Patterns: pats("bb", "bn", "nb"),
		holds:    func(a []value.Value) bool { return a[0].Num+1 == a[1].Num },
		solve:    solveSucc,
	})
	register(&Builtin{
		Name: "add", Arity: 3,
		Patterns: pats("bbb", "bbn", "bnb", "nbb", "nnb"),
		holds:    func(a []value.Value) bool { return a[0].Num+a[1].Num == a[2].Num },
		solve:    solveAdd,
	})
	register(&Builtin{
		Name: "sub", Arity: 3,
		Patterns: pats("bbb", "bbn", "bnb", "nbb"),
		holds:    func(a []value.Value) bool { return a[0].Num-a[1].Num == a[2].Num && a[2].Num >= 0 },
		solve:    solveSub,
	})
	register(&Builtin{
		Name: "mul", Arity: 3,
		Patterns: pats("bbb", "bbn", "bnb", "nbb", "nnb"),
		holds:    func(a []value.Value) bool { return a[0].Num*a[1].Num == a[2].Num },
		solve:    solveMul,
	})
	register(&Builtin{
		Name: "div", Arity: 3,
		Patterns: pats("bbb", "bbn", "nbb"),
		holds: func(a []value.Value) bool {
			return a[1].Num > 0 && a[0].Num >= 0 && a[0].Num/a[1].Num == a[2].Num
		},
		solve: solveDiv,
	})
	register(&Builtin{
		Name: "mod", Arity: 3,
		Patterns: pats("bbb", "bbn"),
		holds: func(a []value.Value) bool {
			return a[1].Num > 0 && a[0].Num >= 0 && a[0].Num%a[1].Num == a[2].Num
		},
		solve: solveMod,
	})
	for _, cmp := range []struct {
		name string
		ok   func(int) bool
	}{
		{"lt", func(c int) bool { return c < 0 }},
		{"le", func(c int) bool { return c <= 0 }},
		{"gt", func(c int) bool { return c > 0 }},
		{"ge", func(c int) bool { return c >= 0 }},
	} {
		ok := cmp.ok
		register(&Builtin{
			Name: cmp.name, Arity: 2,
			Patterns: pats("bb"),
			holds:    func(a []value.Value) bool { return ok(a[0].Compare(a[1])) },
		})
	}
	register(&Builtin{
		Name: "eq", Arity: 2,
		Patterns:    pats("bb", "bn", "nb"),
		Polymorphic: true,
		holds:       func(a []value.Value) bool { return a[0].Equal(a[1]) },
		solve:       solveEq,
	})
	register(&Builtin{
		Name: "neq", Arity: 2,
		Patterns:    pats("bb"),
		Polymorphic: true,
		holds:       func(a []value.Value) bool { return !a[0].Equal(a[1]) },
	})
}

func solveSucc(args []value.Value, pat string) ([][]value.Value, error) {
	switch pat {
	case "bn":
		return one(args[0], value.Int(args[0].Num+1)), nil
	case "nb":
		if args[1].Num >= 1 {
			return one(value.Int(args[1].Num-1), args[1]), nil
		}
	}
	return nil, nil
}

func solveAdd(args []value.Value, pat string) ([][]value.Value, error) {
	a, b, c := args[0], args[1], args[2]
	switch pat {
	case "bbn":
		return one(a, b, value.Int(a.Num+b.Num)), nil
	case "bnb":
		if d := c.Num - a.Num; d >= 0 {
			return one(a, value.Int(d), c), nil
		}
	case "nbb":
		if d := c.Num - b.Num; d >= 0 {
			return one(value.Int(d), b, c), nil
		}
	case "nnb":
		// A + B = C with C bound: the paper's motivating finite case
		// (equation L + M = 1 has two solutions).
		if c.Num < 0 {
			return nil, nil
		}
		sols := make([][]value.Value, 0, c.Num+1)
		for x := int64(0); x <= c.Num; x++ {
			sols = append(sols, []value.Value{value.Int(x), value.Int(c.Num - x), c})
		}
		return sols, nil
	}
	return nil, nil
}

func solveSub(args []value.Value, pat string) ([][]value.Value, error) {
	// sub(A,B,C) holds iff A - B = C over the naturals (A >= B).
	a, b, c := args[0], args[1], args[2]
	switch pat {
	case "bbn":
		if d := a.Num - b.Num; d >= 0 {
			return one(a, b, value.Int(d)), nil
		}
	case "bnb":
		if d := a.Num - c.Num; d >= 0 {
			return one(a, value.Int(d), c), nil
		}
	case "nbb":
		return one(value.Int(b.Num+c.Num), b, c), nil
	}
	return nil, nil
}

func solveMul(args []value.Value, pat string) ([][]value.Value, error) {
	a, b, c := args[0], args[1], args[2]
	switch pat {
	case "bbn":
		return one(a, b, value.Int(a.Num*b.Num)), nil
	case "bnb":
		if a.Num == 0 {
			if c.Num == 0 {
				return nil, fmt.Errorf("mul: 0 * B = 0 has unboundedly many solutions")
			}
			return nil, nil
		}
		if c.Num%a.Num == 0 && c.Num/a.Num >= 0 {
			return one(a, value.Int(c.Num/a.Num), c), nil
		}
	case "nbb":
		if b.Num == 0 {
			if c.Num == 0 {
				return nil, fmt.Errorf("mul: A * 0 = 0 has unboundedly many solutions")
			}
			return nil, nil
		}
		if c.Num%b.Num == 0 && c.Num/b.Num >= 0 {
			return one(value.Int(c.Num/b.Num), b, c), nil
		}
	case "nnb":
		if c.Num == 0 {
			return nil, fmt.Errorf("mul: A * B = 0 has unboundedly many solutions")
		}
		if c.Num < 0 {
			return nil, nil
		}
		var sols [][]value.Value
		for x := int64(1); x*x <= c.Num; x++ {
			if c.Num%x != 0 {
				continue
			}
			y := c.Num / x
			sols = append(sols, []value.Value{value.Int(x), value.Int(y), c})
			if x != y {
				sols = append(sols, []value.Value{value.Int(y), value.Int(x), c})
			}
		}
		return sols, nil
	}
	return nil, nil
}

func solveDiv(args []value.Value, pat string) ([][]value.Value, error) {
	// div(A,B,C) holds iff B > 0 and A div B = C (floor division).
	a, b, c := args[0], args[1], args[2]
	switch pat {
	case "bbn":
		if b.Num > 0 && a.Num >= 0 {
			return one(a, b, value.Int(a.Num/b.Num)), nil
		}
	case "nbb":
		// A ranges over the finite interval [B*C, B*C+B-1].
		if b.Num <= 0 || c.Num < 0 {
			return nil, nil
		}
		sols := make([][]value.Value, 0, b.Num)
		for x := b.Num * c.Num; x < b.Num*(c.Num+1); x++ {
			sols = append(sols, []value.Value{value.Int(x), b, c})
		}
		return sols, nil
	}
	return nil, nil
}

func solveMod(args []value.Value, pat string) ([][]value.Value, error) {
	// mod(A,B,C) holds iff B > 0 and A mod B = C; bbn is the only
	// admissible pattern with an unbound argument.
	a, b := args[0], args[1]
	if b.Num > 0 && a.Num >= 0 {
		return one(a, b, value.Int(a.Num%b.Num)), nil
	}
	return nil, nil
}

func solveEq(args []value.Value, pat string) ([][]value.Value, error) {
	switch pat {
	case "bn":
		return one(args[0], args[0]), nil
	case "nb":
		return one(args[1], args[1]), nil
	}
	return nil, nil
}

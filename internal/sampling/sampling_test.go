package sampling

import (
	"fmt"
	"strings"
	"testing"

	"idlog/internal/core"
	"idlog/internal/relation"
	"idlog/internal/value"
)

// employeeDB builds the synthetic emp(Name, Dept) workload of the
// paper's running examples: depts departments with perDept employees
// each.
func employeeDB(depts, perDept int) *core.Database {
	db := core.NewDatabase()
	for d := 0; d < depts; d++ {
		dept := value.Str(fmt.Sprintf("dept%03d", d))
		for e := 0; e < perDept; e++ {
			name := value.Str(fmt.Sprintf("emp%03d_%04d", d, e))
			_ = db.Add("emp", value.Tuple{name, dept})
		}
	}
	return db
}

// runSample is SampleWith under default options.
func runSample(s Spec, db *core.Database, seed uint64) (*relation.Relation, *core.Result, error) {
	return SampleWith(s, db, seed, core.Options{})
}

// direct computes the sample without the logic engine: materialize the
// ID-relation under the same oracle and keep the tuples with tid < K.
// Given the same seed it must coincide exactly with the engine's.
func direct(s Spec, base *relation.Relation, seed uint64) (*relation.Relation, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	idr, err := relation.MaterializeIDBounded(base, s.Relation+"_id", s.GroupCols, relation.RandomOracle{Seed: seed}, 0)
	if err != nil {
		return nil, err
	}
	out := relation.New(s.output(), base.Arity())
	tid := base.Arity()
	for _, t := range idr.Tuples() {
		if t[tid].Num < int64(s.K) {
			out.MustInsert(t[:tid])
		}
	}
	return out, nil
}

// check verifies that sample satisfies the sampling-query
// specification against the base relation: sample ⊆ base, and every
// group of base contributes exactly min(K, |group|) tuples.
func check(s Spec, sample, base *relation.Relation) error {
	for _, t := range sample.Tuples() {
		if !base.Contains(t) {
			return fmt.Errorf("sampling: %v not in base relation", t)
		}
	}
	counts := map[string]int{}
	for _, t := range sample.Tuples() {
		counts[t.Project(s.GroupCols).Key()]++
	}
	for _, g := range base.Groups(s.GroupCols) {
		want := s.K
		if len(g.Members) < want {
			want = len(g.Members)
		}
		if got := counts[g.Key.Key()]; got != want {
			return fmt.Errorf("sampling: group %v has %d samples, want %d", g.Key, got, want)
		}
	}
	// No samples from phantom groups.
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != sample.Len() {
		return fmt.Errorf("sampling: internal accounting error")
	}
	return nil
}

// frequencies counts, over the given seeds, how often each base tuple
// is selected.
func frequencies(s Spec, db *core.Database, seeds []uint64) (map[string]int, error) {
	freq := map[string]int{}
	for _, seed := range seeds {
		sample, _, err := runSample(s, db, seed)
		if err != nil {
			return freq, err
		}
		for _, t := range sample.Tuples() {
			freq[t.String()]++
		}
	}
	return freq, nil
}

func empSpec(k int) Spec {
	return Spec{Relation: "emp", Arity: 2, GroupCols: []int{1}, K: k, Output: "sample"}
}

func TestProgramTextK2(t *testing.T) {
	prog, err := Program(empSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	want := "sample(V1, V2) :- emp[2](V1, V2, T), T < 2.\n"
	if prog.String() != want {
		t.Fatalf("program = %q, want %q", prog.String(), want)
	}
}

func TestProgramTextK1UsesTidZero(t *testing.T) {
	prog, err := Program(empSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.String(), "T = 0") {
		t.Fatalf("K=1 program should test T = 0: %q", prog.String())
	}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{Relation: "", Arity: 2, K: 1},
		{Relation: "r", Arity: 0, K: 1},
		{Relation: "r", Arity: 2, K: 0},
		{Relation: "r", Arity: 2, K: 1, GroupCols: []int{5}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d not rejected", i)
		}
	}
}

func TestSampleSatisfiesSpec(t *testing.T) {
	db := employeeDB(4, 7)
	for _, k := range []int{1, 2, 3, 7} {
		spec := empSpec(k)
		for seed := uint64(0); seed < 5; seed++ {
			sample, _, err := runSample(spec, db, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := check(spec, sample, db.Relation("emp")); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			if sample.Len() != 4*k {
				t.Fatalf("k=%d: sample size %d, want %d", k, sample.Len(), 4*k)
			}
		}
	}
}

func TestKLargerThanGroup(t *testing.T) {
	// Departments with fewer than K employees contribute all of them.
	db := core.NewDatabase()
	_ = db.AddAll("emp",
		value.Strs("a", "d1"), value.Strs("b", "d1"), value.Strs("c", "d1"),
		value.Strs("x", "d2"))
	spec := empSpec(2)
	sample, _, err := runSample(spec, db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := check(spec, sample, db.Relation("emp")); err != nil {
		t.Fatal(err)
	}
	if sample.Len() != 3 { // 2 from d1 + 1 from d2
		t.Fatalf("sample = %v", sample)
	}
}

func TestDirectMatchesEngine(t *testing.T) {
	db := employeeDB(5, 6)
	spec := empSpec(2)
	for seed := uint64(0); seed < 10; seed++ {
		viaEngine, _, err := runSample(spec, db, seed)
		if err != nil {
			t.Fatal(err)
		}
		viaID, err := direct(spec, db.Relation("emp"), seed)
		if err != nil {
			t.Fatal(err)
		}
		if !viaEngine.Equal(viaID) {
			t.Fatalf("seed %d: engine and direct samples differ:\n%v\n%v", seed, viaEngine, viaID)
		}
	}
}

func TestUngroupedGlobalSample(t *testing.T) {
	db := employeeDB(3, 5)
	spec := Spec{Relation: "emp", Arity: 2, K: 4}
	sample, _, err := runSample(spec, db, 9)
	if err != nil {
		t.Fatal(err)
	}
	if sample.Len() != 4 {
		t.Fatalf("global sample size = %d, want 4", sample.Len())
	}
	if err := check(spec, sample, db.Relation("emp")); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	db := employeeDB(2, 3)
	spec := empSpec(2)
	sample, _, err := runSample(spec, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Remove one tuple: count violation.
	broken := relation.FromTuples("sample", sample.Arity(), sample.Tuples()[1:]...)
	if err := check(spec, broken, db.Relation("emp")); err == nil {
		t.Fatalf("undersized sample not detected")
	}
	// Foreign tuple: subset violation.
	foreign := sample.Clone()
	foreign.MustInsert(value.Strs("ghost", "dept000"))
	if err := check(spec, foreign, db.Relation("emp")); err == nil {
		t.Fatalf("foreign tuple not detected")
	}
}

func TestSamplingIsRoughlyUniform(t *testing.T) {
	// Over many seeds every employee of a department should be picked a
	// comparable number of times (loose 3x bound, not a strict
	// statistical test).
	db := employeeDB(1, 5)
	spec := empSpec(1)
	seeds := make([]uint64, 400)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	freq, err := frequencies(spec, db, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(freq) != 5 {
		t.Fatalf("only %d employees ever sampled: %v", len(freq), freq)
	}
	min, max := 1<<30, 0
	for _, n := range freq {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max > 3*min {
		t.Fatalf("sampling badly skewed: min=%d max=%d (%v)", min, max, freq)
	}
}

func TestDifferentSeedsDifferentSamples(t *testing.T) {
	db := employeeDB(3, 8)
	spec := empSpec(2)
	fps := map[string]bool{}
	for seed := uint64(0); seed < 20; seed++ {
		s, _, err := runSample(spec, db, seed)
		if err != nil {
			t.Fatal(err)
		}
		fps[s.Fingerprint()] = true
	}
	if len(fps) < 5 {
		t.Fatalf("20 seeds gave only %d distinct samples", len(fps))
	}
}

func TestEmployeeDBShape(t *testing.T) {
	db := employeeDB(3, 4)
	emp := db.Relation("emp")
	if emp.Len() != 12 {
		t.Fatalf("emp size = %d", emp.Len())
	}
	if got := len(emp.Groups([]int{1})); got != 3 {
		t.Fatalf("departments = %d", got)
	}
}

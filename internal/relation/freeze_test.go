package relation

import (
	"fmt"
	"sync"
	"testing"

	"idlog/internal/value"
)

func buildEmp(n int) *Relation {
	r := New("emp", 2)
	for i := 0; i < n; i++ {
		r.MustInsert(value.Tuple{value.Str(fmt.Sprintf("e%03d", i)), value.Str(fmt.Sprintf("d%d", i%7))})
	}
	return r
}

func TestFreezeRejectsInserts(t *testing.T) {
	r := buildEmp(10).Freeze()
	if !r.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	if _, err := r.Insert(value.Strs("x", "y")); err == nil {
		t.Error("Insert on frozen relation succeeded")
	}
	if _, err := r.InsertShared(value.Strs("x", "y")); err == nil {
		t.Error("InsertShared on frozen relation succeeded")
	}
	// Freezing twice is a no-op.
	if r.Freeze() != r {
		t.Error("double Freeze did not return the receiver")
	}
}

func TestFreezeKeepsPrebuiltIndexes(t *testing.T) {
	r := buildEmp(20)
	key := value.Tuple{value.Str("d1")}
	before := len(probeTuples(r, []int{1}, key)) // builds the index pre-freeze
	r.Freeze()
	after := len(probeTuples(r, []int{1}, key))
	if before == 0 || before != after {
		t.Fatalf("probe before freeze found %d, after %d", before, after)
	}
}

// TestFrozenConcurrentProbe hammers a frozen relation with concurrent
// probes on several distinct column sets, forcing racing lazy index
// builds. Run with -race; correctness check: every goroutine sees the
// same match counts a sequential probe sees.
func TestFrozenConcurrentProbe(t *testing.T) {
	r := buildEmp(200).Freeze()
	seq := buildEmp(200)
	type probe struct {
		cols []int
		key  value.Tuple
	}
	probes := []probe{
		{[]int{1}, value.Tuple{value.Str("d3")}},
		{[]int{0}, value.Tuple{value.Str("e007")}},
		{[]int{0, 1}, value.Tuple{value.Str("e010"), value.Str("d3")}},
	}
	want := make([]int, len(probes))
	for i, p := range probes {
		want[i] = len(probeTuples(seq, p.cols, p.key))
		if i == 0 && want[i] == 0 {
			t.Fatal("bad test setup: probe 0 matches nothing")
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				i := (g + iter) % len(probes)
				got := len(r.Probe(probes[i].cols, probes[i].key))
				if got != want[i] {
					errs <- fmt.Errorf("probe %d: got %d matches, want %d", i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFrozenConcurrentGroups checks the other shared read path used by
// ID-relation materialization.
func TestFrozenConcurrentGroups(t *testing.T) {
	r := buildEmp(100).Freeze()
	wantGroups := len(buildEmp(100).Groups([]int{1}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				if got := len(r.Groups([]int{1})); got != wantGroups {
					t.Errorf("Groups: got %d, want %d", got, wantGroups)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCloneOfFrozenIsMutable(t *testing.T) {
	r := buildEmp(5).Freeze()
	c := r.Clone()
	if c.Frozen() {
		t.Fatal("clone inherited frozen state")
	}
	if ok, err := c.Insert(value.Strs("new", "d9")); err != nil || !ok {
		t.Fatalf("insert into clone: ok=%v err=%v", ok, err)
	}
	if r.Len() != 5 || c.Len() != 6 {
		t.Fatalf("clone insert leaked into original: orig=%d clone=%d", r.Len(), c.Len())
	}
	if r.Contains(value.Strs("new", "d9")) {
		t.Error("frozen original contains the clone's tuple")
	}
}

package claims

import (
	"strings"
	"testing"

	"idlog/claims/internal/turing"
	"idlog/internal/relation"
)

// containsOne is a non-deterministic machine: scanning right, on a 1
// it may keep going or accept, so it accepts iff the tape holds a 1.
func containsOne() *turing.Machine {
	return &turing.Machine{
		Start: "g", Accept: "acc", Blank: "_",
		Rules: []turing.Rule{
			{State: "g", Read: "0", NewState: "g", Write: "0", Move: turing.Right},
			{State: "g", Read: "1", NewState: "g", Write: "1", Move: turing.Right},
			{State: "g", Read: "1", NewState: "acc", Write: "1", Move: turing.Stay},
		},
	}
}

func tape(s string) []string {
	out := make([]string, len(s))
	for i := range s {
		out[i] = string(s[i])
	}
	return out
}

// TestE5TuringCompilation checks C5 (§5, Theorem 6): the stratified
// IDLOG program compiled from a non-deterministic machine accepts an
// input (some answer derives tm_accept) exactly when breadth-first
// simulation does, and replaying one guessed path derives between
// steps·tape and 4·steps·tape facts, the frame axiom's O(steps × tape).
func TestE5TuringCompilation(t *testing.T) {
	m := containsOne()
	c, err := turing.Compile(m, 3, 5)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	for _, in := range []string{"1", "01", "001", "000", "", "10"} {
		direct, _ := m.Accepts(tape(in), 3)
		compiled, _, err := c.Accepts(turing.TapeDB(tape(in)), 500000)
		if err != nil {
			t.Fatalf("input %q: %v", in, err)
		}
		if direct != compiled {
			t.Fatalf("input %q: direct simulation accepts=%v, compiled program accepts=%v", in, direct, compiled)
		}
		if want := strings.Contains(in, "1"); direct != want {
			t.Fatalf("input %q: accepts=%v, want %v", in, direct, want)
		}
	}
	t.Logf("existential acceptance agrees with BFS on 6/6 inputs at 3 steps")

	for _, w := range []struct{ steps, derived int }{{4, 83}, {8, 187}, {16, 491}} {
		tapeSize := w.steps + 2
		// The 1 sits at the far end: the longest accepting path.
		input := tape(strings.Repeat("0", tapeSize-2) + "1")
		c, err := turing.Compile(m, w.steps, tapeSize)
		if err != nil {
			t.Fatalf("compile %d steps: %v", w.steps, err)
		}
		_, res, err := c.EvalPath(turing.TapeDB(input), relation.SortedOracle{})
		if err != nil {
			t.Fatalf("eval %d steps: %v", w.steps, err)
		}
		got, cells := res.Stats.Inserted, w.steps*tapeSize
		t.Logf("%d steps, tape %d: one guessed path derives %d facts (want %d; steps·tape = %d)",
			w.steps, tapeSize, got, w.derived, cells)
		if got < cells || got > 4*cells {
			t.Fatalf("%d steps: %d facts derived, outside [steps·tape, 4·steps·tape] = [%d, %d]",
				w.steps, got, cells, 4*cells)
		}
		if got != w.derived {
			t.Fatalf("%d steps: %d facts derived, want %d", w.steps, got, w.derived)
		}
	}
}

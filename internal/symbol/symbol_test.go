package symbol

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestInternIsIdempotent(t *testing.T) {
	tb := NewTable()
	a := tb.Intern("alpha")
	b := tb.Intern("beta")
	if a == b {
		t.Fatalf("distinct names interned to same ID %d", a)
	}
	if again := tb.Intern("alpha"); again != a {
		t.Fatalf("re-interning alpha: got %d want %d", again, a)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
}

func TestNameRoundTrip(t *testing.T) {
	tb := NewTable()
	names := []string{"a", "b", "", "with space", "日本語", "a"}
	for _, n := range names {
		id := tb.Intern(n)
		if got := tb.Name(id); got != n {
			t.Errorf("Name(Intern(%q)) = %q", n, got)
		}
	}
}

func TestZeroIDIsNeverIssued(t *testing.T) {
	tb := NewTable()
	for i := 0; i < 100; i++ {
		if id := tb.Intern(fmt.Sprintf("s%d", i)); id == None {
			t.Fatalf("Intern returned the reserved None ID")
		}
	}
}

func TestNameOfUnknownIDIsDiagnostic(t *testing.T) {
	tb := NewTable()
	if got := tb.Name(None); got == "" {
		t.Errorf("Name(None) should be a diagnostic placeholder, got empty string")
	}
	if got := tb.Name(ID(9999)); got == "" {
		t.Errorf("Name(out-of-range) should be a diagnostic placeholder, got empty string")
	}
}

func TestLookupDoesNotIntern(t *testing.T) {
	tb := NewTable()
	if _, ok := tb.Lookup("ghost"); ok {
		t.Fatalf("Lookup found a never-interned name")
	}
	if tb.Len() != 0 {
		t.Fatalf("Lookup interned a name: Len = %d", tb.Len())
	}
	id := tb.Intern("ghost")
	got, ok := tb.Lookup("ghost")
	if !ok || got != id {
		t.Fatalf("Lookup(ghost) = %d,%v want %d,true", got, ok, id)
	}
}

func TestFreshAvoidsCollisions(t *testing.T) {
	tb := NewTable()
	tb.Intern("v#1")
	seen := make(map[string]bool)
	for i := 0; i < 50; i++ {
		id, name := tb.Fresh("v")
		if seen[name] {
			t.Fatalf("Fresh returned duplicate name %q", name)
		}
		seen[name] = true
		if tb.Name(id) != name {
			t.Fatalf("Fresh ID %d resolves to %q, want %q", id, tb.Name(id), name)
		}
	}
	if seen["v#1"] {
		t.Fatalf("Fresh reused the pre-interned name v#1")
	}
}

func TestConcurrentIntern(t *testing.T) {
	tb := NewTable()
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	ids := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, perG)
			for i := 0; i < perG; i++ {
				ids[g][i] = tb.Intern(fmt.Sprintf("name-%d", i))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d interned name-%d to %d, goroutine 0 got %d", g, i, ids[g][i], ids[0][i])
			}
		}
	}
	if tb.Len() != perG {
		t.Fatalf("Len = %d, want %d", tb.Len(), perG)
	}
}

// A new name cut from a larger string is stored as its own copy, so the
// table never keeps the larger string (a whole fact file, a request
// body) alive.
func TestInternDoesNotPinSource(t *testing.T) {
	tb := NewTable()
	src := strings.Repeat("x", 1<<10) + "needle" + strings.Repeat("y", 1<<10)
	sub := src[1<<10 : 1<<10+len("needle")]
	for _, id := range []ID{tb.Intern(sub), tb.InternBytes([]byte("other"))} {
		name := tb.Name(id)
		p := uintptr(unsafe.Pointer(unsafe.StringData(name)))
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		if p >= lo && p < lo+uintptr(len(src)) {
			t.Fatalf("stored name %q points into the source string", name)
		}
	}
	if got := tb.Name(tb.Intern(sub)); got != "needle" {
		t.Fatalf("Name = %q, want needle", got)
	}
}

func TestInternBytesMatchesIntern(t *testing.T) {
	tb := NewTable()
	a := tb.Intern("alpha")
	if got := tb.InternBytes([]byte("alpha")); got != a {
		t.Fatalf("InternBytes(alpha) = %d, Intern gave %d", got, a)
	}
	b := tb.InternBytes([]byte("beta"))
	if got := tb.Intern("beta"); got != b || tb.Name(b) != "beta" {
		t.Fatalf("Intern(beta) = %d (%q), InternBytes gave %d", got, tb.Name(got), b)
	}
	buf := []byte("gamma")
	if allocs := testing.AllocsPerRun(100, func() { tb.InternBytes(buf) }); allocs != 0 {
		t.Fatalf("InternBytes hit allocates %.0f times, want 0", allocs)
	}
}

// Name reads without a lock while other goroutines intern and grow the
// table; run under -race.
func TestConcurrentInternAndName(t *testing.T) {
	tb := NewTable()
	const writers, perW = 4, 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				if got := tb.Name(tb.Intern(name)); got != name {
					t.Errorf("Name(Intern(%q)) = %q", name, got)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := tb.Len()
				for id := ID(1); int(id) <= n; id++ {
					if tb.Name(id) == "" {
						t.Errorf("Name(%d) is empty with Len %d", id, n)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if tb.Len() != writers*perW {
		t.Fatalf("Len = %d, want %d", tb.Len(), writers*perW)
	}
}

func TestDefaultTable(t *testing.T) {
	id := Intern("default-table-probe")
	if Name(id) != "default-table-probe" {
		t.Fatalf("default table round trip failed")
	}
	if Default() == nil {
		t.Fatalf("Default() returned nil")
	}
}

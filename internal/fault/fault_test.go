package fault

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryNeverFires(t *testing.T) {
	var r *Registry
	if err := r.Hit("x"); err != nil {
		t.Fatalf("nil registry fired: %v", err)
	}
	r.Arm("x", Fault{})
	r.DisarmAll()
	if r.Hits("x") != 0 || r.Fired("x") != 0 {
		t.Fatal("nil registry reported state")
	}
}

func TestUnarmedPointCountsHits(t *testing.T) {
	r := New()
	for i := 0; i < 3; i++ {
		if err := r.Hit("p"); err != nil {
			t.Fatalf("unarmed point fired: %v", err)
		}
	}
	if r.Hits("p") != 3 {
		t.Fatalf("hits = %d, want 3", r.Hits("p"))
	}
}

func TestAfterAndCountSchedule(t *testing.T) {
	r := New()
	want := errors.New("boom")
	r.Arm("p", Fault{After: 2, Count: 2, Err: want})
	var got []bool
	for i := 0; i < 6; i++ {
		err := r.Hit("p")
		got = append(got, err != nil)
		if err != nil && !errors.Is(err, want) {
			t.Fatalf("hit %d: err = %v, want wrapping %v", i, err, want)
		}
	}
	exp := []bool{false, false, true, true, false, false}
	for i := range exp {
		if got[i] != exp[i] {
			t.Fatalf("fire pattern %v, want %v", got, exp)
		}
	}
	if r.Fired("p") != 2 {
		t.Fatalf("fired = %d, want 2", r.Fired("p"))
	}
}

func TestCountZeroFiresUntilDisarm(t *testing.T) {
	r := New()
	r.Arm("p", Fault{})
	for i := 0; i < 4; i++ {
		if !errors.Is(r.Hit("p"), ErrInjected) {
			t.Fatalf("hit %d did not fire ErrInjected", i)
		}
	}
	r.DisarmAll()
	if err := r.Hit("p"); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
}

func TestDelayOnly(t *testing.T) {
	r := New()
	r.Arm("p", Fault{Delay: 10 * time.Millisecond, DelayOnly: true})
	start := time.Now()
	if err := r.Hit("p"); err != nil {
		t.Fatalf("delay-only fired an error: %v", err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("delay-only did not delay")
	}
}

func TestRearmResetsCounters(t *testing.T) {
	r := New()
	r.Arm("p", Fault{Count: 1})
	_ = r.Hit("p")
	r.Arm("p", Fault{Count: 1})
	if err := r.Hit("p"); err == nil {
		t.Fatal("re-armed schedule did not fire")
	}
}

func TestConcurrentHits(t *testing.T) {
	r := New()
	r.Arm("p", Fault{Count: 10})
	var wg sync.WaitGroup
	fired := make(chan struct{}, 100)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if r.Hit("p") != nil {
					fired <- struct{}{}
				}
			}
		}()
	}
	wg.Wait()
	if len(fired) != 10 {
		t.Fatalf("fired %d times, want exactly 10", len(fired))
	}
	if r.Hits("p") != 100 {
		t.Fatalf("hits = %d, want 100", r.Hits("p"))
	}
}

func TestParseSpec(t *testing.T) {
	name, f, err := ParseSpec("repl.stream.send:after=5,count=1,delay=10ms,err=partition")
	if err != nil {
		t.Fatal(err)
	}
	if name != "repl.stream.send" || f.After != 5 || f.Count != 1 || f.Delay != 10*time.Millisecond || f.Err == nil || f.Err.Error() != "partition" {
		t.Fatalf("parsed %q %+v", name, f)
	}
	if name, f, err = ParseSpec("wal.append.sync"); err != nil || name != "wal.append.sync" || f.Count != 0 {
		t.Fatalf("bare spec: %q %+v %v", name, f, err)
	}
	if _, _, err = ParseSpec(""); err == nil {
		t.Fatal("empty spec parsed")
	}
	if _, _, err = ParseSpec("p:bogus=1"); err == nil {
		t.Fatal("unknown key parsed")
	}
	if _, _, err = ParseSpec("p:after=x"); err == nil {
		t.Fatal("bad int parsed")
	}
}

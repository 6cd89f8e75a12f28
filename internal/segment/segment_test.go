package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"idlog/internal/relation"
	"idlog/internal/symbol"
	"idlog/internal/value"
)

// testTuples builds n mixed-sort tuples (symbol, int) with some shared
// symbols so the dictionary has repeats to compress.
func testTuples(n int) []value.Tuple {
	out := make([]value.Tuple, n)
	for i := range out {
		out[i] = value.Tuple{value.Str(fmt.Sprintf("node%d", i%977)), value.Int(int64(i))}
	}
	return out
}

// writeSegment writes tuples into a fresh segment file and returns its
// path.
func writeSegment(t testing.TB, tuples []value.Tuple, arity int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rel.seg")
	w, err := Create(path, "rel", arity)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		if _, err := w.Add(tup); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	tuples := testTuples(3 * defaultBlockTuples / 2) // forces multiple blocks
	path := writeSegment(t, tuples, 2)
	s, err := Open(path, NewCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Name() != "rel" || s.Arity() != 2 {
		t.Fatalf("Name=%q Arity=%d, want rel/2", s.Name(), s.Arity())
	}
	if s.Len() != len(tuples) {
		t.Fatalf("Len=%d, want %d", s.Len(), len(tuples))
	}
	for i, want := range tuples {
		if got := s.At(i); !got.Equal(want) {
			t.Fatalf("At(%d)=%v, want %v", i, got, want)
		}
		if got := s.HashAt(i); got != want.Hash() {
			t.Fatalf("HashAt(%d)=%x, want %x", i, got, want.Hash())
		}
	}
	i := 0
	ok := s.Scan(0, -1, func(pos int, tup value.Tuple) bool {
		if pos != i || !tup.Equal(tuples[i]) {
			t.Fatalf("Scan pos %d got (%d, %v)", i, pos, tup)
		}
		i++
		return true
	})
	if !ok || i != len(tuples) {
		t.Fatalf("Scan visited %d tuples (ok=%v), want %d", i, ok, len(tuples))
	}
	// Partial scan with early stop.
	seen := 0
	if s.Scan(10, 20, func(pos int, tup value.Tuple) bool {
		seen++
		return seen < 5
	}) {
		t.Fatal("early-stopped Scan reported completion")
	}
	if seen != 5 {
		t.Fatalf("early-stopped Scan saw %d tuples, want 5", seen)
	}
}

func TestWriterDeduplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.seg")
	w, err := Create(path, "dup", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates both inside the in-flight block and across a flushed
	// block boundary (read-back path).
	for i := 0; i < 2*defaultBlockTuples; i++ {
		added, err := w.Add(value.Ints(int64(i)))
		if err != nil || !added {
			t.Fatalf("Add(%d) = %v, %v", i, added, err)
		}
	}
	for _, n := range []int64{0, 5, int64(defaultBlockTuples), int64(2*defaultBlockTuples - 1)} {
		added, err := w.Add(value.Ints(n))
		if err != nil {
			t.Fatal(err)
		}
		if added {
			t.Fatalf("duplicate %d was added", n)
		}
	}
	if w.Len() != 2*defaultBlockTuples {
		t.Fatalf("Len=%d, want %d", w.Len(), 2*defaultBlockTuples)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 2*defaultBlockTuples {
		t.Fatalf("reopened Len=%d, want %d", s.Len(), 2*defaultBlockTuples)
	}
}

func TestStoredRelationMatchesMemory(t *testing.T) {
	tuples := testTuples(5000)
	mem := relation.New("rel", 2)
	for _, tup := range tuples {
		mem.MustInsert(tup)
	}
	path := writeSegment(t, tuples, 2)
	s, err := Open(path, NewCache(1<<18))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	disk := relation.NewStored("rel", 2, s)
	if disk.Len() != mem.Len() {
		t.Fatalf("disk Len=%d, mem Len=%d", disk.Len(), mem.Len())
	}
	if got, want := disk.Fingerprint(), mem.Fingerprint(); got != want {
		t.Fatalf("fingerprints differ: disk %s, mem %s", got, want)
	}
	if !disk.Equal(mem) || !mem.Equal(disk) {
		t.Fatal("disk and mem relations not set-equal")
	}
	for _, tup := range tuples[:100] {
		if !disk.Contains(tup) {
			t.Fatalf("disk missing %v", tup)
		}
	}
	if disk.Contains(value.Tuple{value.Str("absent"), value.Int(-1)}) {
		t.Fatal("disk contains a tuple never added")
	}
	// Probes through the shared secondary-index machinery.
	key := value.Tuple{value.Str("node7")}
	dp := disk.ProbeTuples([]int{0}, key)
	mp := mem.ProbeTuples([]int{0}, key)
	if len(dp) != len(mp) || len(dp) == 0 {
		t.Fatalf("probe sizes differ: disk %d, mem %d", len(dp), len(mp))
	}
	// Overlay inserts land on top of the disk base; fingerprints must
	// track the mem twin.
	extra := value.Tuple{value.Str("extra"), value.Int(1 << 40)}
	if _, err := disk.Insert(extra); err != nil {
		t.Fatal(err)
	}
	mem.MustInsert(extra)
	if got, want := disk.Fingerprint(), mem.Fingerprint(); got != want {
		t.Fatalf("fingerprints differ after overlay insert: disk %s, mem %s", got, want)
	}
	// Remove patches the source position in place and must still agree.
	victim := tuples[1234]
	if ok, err := disk.Remove(victim); err != nil || !ok {
		t.Fatalf("disk Remove = %v, %v", ok, err)
	}
	if ok, err := mem.Remove(victim); err != nil || !ok {
		t.Fatalf("mem Remove = %v, %v", ok, err)
	}
	if got, want := disk.Fingerprint(), mem.Fingerprint(); got != want {
		t.Fatalf("fingerprints differ after Remove: disk %s, mem %s", got, want)
	}
	// The relation stays disk-resident: the overlay tuple moved into the
	// victim's position, so one source position is patched and the rest
	// still read from the segment.
	if got, want := disk.SourceLen(), len(tuples)-1; got != want {
		t.Fatalf("SourceLen=%d after Remove, want %d (still disk-resident)", got, want)
	}
	if !disk.Contains(extra) || disk.Contains(victim) {
		t.Fatal("Remove through a patch lost the moved tuple or kept the victim")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"empty.seg": nil,
		"short.seg": []byte(magicHead),
		"junk.seg":  []byte("this is definitely not a segment file, but it is long enough to parse"),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, nil); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("%s: Open = %v, want ErrCorruptSegment", name, err)
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	tuples := testTuples(100)
	path := writeSegment(t, tuples, 2)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header field corruption: flip a byte inside the name length area.
	flip := func(off int) string {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0xff
		p := filepath.Join(t.TempDir(), "bad.seg")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := Open(flip(9), nil); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("header corruption: Open = %v, want ErrCorruptSegment", err)
	}
	// Footer corruption (the trailer offset points at it; flip a byte
	// near the end of the footer body).
	if _, err := Open(flip(len(orig)-trailerLen-8), nil); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("footer corruption: Open = %v, want ErrCorruptSegment", err)
	}
	// Data-block corruption is detected lazily, on first read of the
	// damaged block.
	blockOff := len(magicHead) + 20 // somewhere inside the first block
	s, err := Open(flip(blockOff), nil)
	if err != nil {
		t.Fatalf("Open with damaged block failed eagerly: %v", err)
	}
	defer s.Close()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("reading a corrupted block did not panic")
			}
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("panic %v, want ErrCorruptSegment", r)
			}
		}()
		s.At(0)
	}()
}

// TestOpenReadsNoBlock: footer hashes are valid in every process, so
// Open, HashAt, building a stored relation's primary table, its
// fingerprint and a lookup that misses read the header and footer only.
func TestOpenReadsNoBlock(t *testing.T) {
	tuples := testTuples(3 * defaultBlockTuples)
	path := writeSegment(t, tuples, 2)
	cache := NewCache(1 << 30)
	s, err := Open(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mem := relation.New("rel", 2)
	for i, want := range tuples {
		if got := s.HashAt(i); got != want.Hash() {
			t.Fatalf("HashAt(%d)=%x, want %x", i, got, want.Hash())
		}
		mem.MustInsert(want)
	}
	disk := relation.NewStored("rel", 2, s)
	if got, want := disk.Fingerprint(), mem.Fingerprint(); got != want {
		t.Fatalf("fingerprint %s, want %s", got, want)
	}
	if disk.Contains(value.Tuple{value.Str("absent"), value.Int(-1)}) {
		t.Fatal("stored relation contains a tuple never added")
	}
	if _, misses := cache.Stats(); misses != 0 {
		t.Fatalf("%d block reads before any tuple was asked for, want 0", misses)
	}
	// A lookup that finds its tuple compares it, reading one block.
	if !disk.Contains(tuples[defaultBlockTuples+5]) {
		t.Fatalf("stored relation misses %v", tuples[defaultBlockTuples+5])
	}
	if _, misses := cache.Stats(); misses != 1 {
		t.Fatalf("%d block reads after one hit, want 1", misses)
	}
}

// TestOldSegmentFormatRejected: a file of the first format, whose footer
// hashes mix the writer's symbol IDs, is refused with a typed error that
// names the format.
func TestOldSegmentFormatRejected(t *testing.T) {
	path := writeSegment(t, testTuples(10), 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "IDLOGSG1")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(path, nil)
	if !errors.Is(err, ErrCorruptSegment) || !strings.Contains(err.Error(), "IDLOGSG1") {
		t.Fatalf("Open of an IDLOGSG1 file = %v, want ErrCorruptSegment naming the format", err)
	}
}

// TestOpenAcrossInternOrders writes a segment in a child process that
// interns the names in one order, and opens it here after interning
// them in the other, so every name has another symbol ID here than
// where it was written. The footer hashes must be the writer's own,
// equal to this process's tuple hashes, and read without a block.
func TestOpenAcrossInternOrders(t *testing.T) {
	names := []string{"xo-alpha", "xo-beta", "xo-gamma", "xo-delta", "xo-epsilon"}
	tuplesOf := func() []value.Tuple {
		out := make([]value.Tuple, 3*defaultBlockTuples)
		for i := range out {
			out[i] = value.Tuple{value.Str(names[i%len(names)]), value.Int(int64(i)), value.Str(names[i*3%len(names)])}
		}
		return out
	}
	if path := os.Getenv("IDLOG_SEGMENT_WRITE"); path != "" {
		for _, n := range names {
			value.Str(n)
		}
		w, err := Create(path, "rel", 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range tuplesOf() {
			if _, err := w.Add(tup); err != nil {
				t.Fatal(err)
			}
			fmt.Printf("hash %x\n", tup.Hash())
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		return
	}
	path := filepath.Join(t.TempDir(), "rel.seg")
	cmd := exec.Command(os.Args[0], "-test.run=^TestOpenAcrossInternOrders$")
	cmd.Env = append(os.Environ(), "IDLOG_SEGMENT_WRITE="+path)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var written []uint64
	for _, line := range strings.Split(string(out), "\n") {
		if h, ok := strings.CutPrefix(line, "hash "); ok {
			x, err := strconv.ParseUint(h, 16, 64)
			if err != nil {
				t.Fatal(err)
			}
			written = append(written, x)
		}
	}

	reversed := slices.Clone(names)
	slices.Reverse(reversed)
	for _, n := range reversed {
		value.Str(n)
	}
	cache := NewCache(1 << 30)
	s, err := Open(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tuples := tuplesOf()
	if s.Len() != len(tuples) || len(written) != len(tuples) {
		t.Fatalf("segment holds %d tuples, child hashed %d, want %d", s.Len(), len(written), len(tuples))
	}
	for i := range tuples {
		if s.HashAt(i) != written[i] {
			t.Fatalf("HashAt(%d)=%x, the writer hashed %x", i, s.HashAt(i), written[i])
		}
	}
	if _, misses := cache.Stats(); misses != 0 {
		t.Fatalf("Open and HashAt read %d blocks, want 0", misses)
	}
	for i, want := range tuples {
		if got := s.At(i); !got.Equal(want) || s.HashAt(i) != got.Hash() {
			t.Fatalf("At(%d)=%v hashing %x, HashAt %x; want %v", i, got, got.Hash(), s.HashAt(i), want)
		}
	}
}

func TestCacheEvictionAndCounters(t *testing.T) {
	tuples := testTuples(4 * defaultBlockTuples)
	path := writeSegment(t, tuples, 2)
	small := NewCache(blockBytes(2 * defaultBlockTuples)) // room for ~1 block
	s, err := Open(path, small)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Scan(0, -1, func(int, value.Tuple) bool { return true })
	hits, misses := small.Stats()
	if misses != 4 {
		t.Fatalf("full scan: %d misses, want 4 (one per block)", misses)
	}
	if hits != 0 {
		t.Fatalf("full scan: %d hits, want 0", hits)
	}
	if small.Blocks() > 2 {
		t.Fatalf("%d blocks resident in a one-block cache", small.Blocks())
	}
	// A second scan through a big cache hits after the first pass.
	big := NewCache(1 << 30)
	s2, err := Open(path, big)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Scan(0, -1, func(int, value.Tuple) bool { return true })
	s2.Scan(0, -1, func(int, value.Tuple) bool { return true })
	hits, misses = big.Stats()
	if misses != 4 || hits != 4 {
		t.Fatalf("two scans: hits=%d misses=%d, want 4/4", hits, misses)
	}
	s2.Close()
	if big.Blocks() != 0 || big.Bytes() != 0 {
		t.Fatalf("cache holds %d blocks / %d bytes after Close, want 0/0", big.Blocks(), big.Bytes())
	}
}

func TestConcurrentReaders(t *testing.T) {
	tuples := testTuples(3 * defaultBlockTuples)
	path := writeSegment(t, tuples, 2)
	s, err := Open(path, NewCache(blockBytes(2*defaultBlockTuples)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rel := relation.NewStored("rel", 2, s).Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(tuples); i += 131 {
				if !rel.Contains(tuples[i]) {
					t.Errorf("goroutine %d: missing %v", g, tuples[i])
					return
				}
				key := value.Tuple{tuples[i][0]}
				if len(rel.Probe([]int{0}, key)) == 0 {
					t.Errorf("goroutine %d: empty probe for %v", g, key)
					return
				}
			}
			n := 0
			rel.Scan(0, -1, func(int, value.Tuple) bool { n++; return true })
			if n != len(tuples) {
				t.Errorf("goroutine %d: scan saw %d tuples, want %d", g, n, len(tuples))
			}
		}(g)
	}
	wg.Wait()
}

// TestBlockAllocations pins the flat block layout: a hit hands out a
// view into the cached value array and allocates nothing; a miss in a
// full cache allocates the read buffer and the block's one value array,
// reusing the evicted entry; nothing per tuple.
func TestBlockAllocations(t *testing.T) {
	path := writeSegment(t, testTuples(2*defaultBlockTuples), 2)
	s, err := Open(path, NewCache(blockBytes(2*defaultBlockTuples))) // room for one block
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.At(0)
	if n := testing.AllocsPerRun(100, func() { s.At(7) }); n != 0 {
		t.Fatalf("At on a warm block: %v allocations, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		s.At(i % 2 * defaultBlockTuples) // alternate blocks: every call misses
		i++
	}); n != 2 {
		t.Fatalf("At on a missed block: %v allocations, want 2 (read buffer, value array)", n)
	}
	// One miss warms block 0; 101 hits, the last the second run's
	// warm-up call; then each of its 100 timed calls misses.
	if hits, misses := s.cache.Stats(); hits != 102 || misses != 101 {
		t.Fatalf("hits=%d misses=%d, want 102/101", hits, misses)
	}
}

// TestTupleViewsAreCapped checks that a tuple handed out by At or Scan
// is capped at the arity: appending to it copies rather than writing
// over the next tuple of the block.
func TestTupleViewsAreCapped(t *testing.T) {
	tuples := testTuples(10)
	s, err := Open(writeSegment(t, tuples, 2), NewCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_ = append(s.At(3), value.Int(-1), value.Int(-2))
	s.Scan(4, 5, func(_ int, tup value.Tuple) bool {
		_ = append(tup, value.Int(-3), value.Int(-4))
		return true
	})
	for i, want := range tuples {
		if got := s.At(i); !got.Equal(want) || cap(got) != 2 {
			t.Fatalf("At(%d) = %v (cap %d), want %v (cap 2)", i, got, cap(got), want)
		}
	}
}

// TestZeroArity round-trips a nullary relation, whose blocks decode to
// an empty value array.
func TestZeroArity(t *testing.T) {
	s, err := Open(writeSegment(t, []value.Tuple{{}, {}}, 0), NewCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 || len(s.At(0)) != 0 || s.HashAt(0) != (value.Tuple{}).Hash() {
		t.Fatalf("nullary segment: Len=%d At(0)=%v", s.Len(), s.At(0))
	}
	n := 0
	s.Scan(0, -1, func(int, value.Tuple) bool { n++; return true })
	if n != 1 {
		t.Fatalf("Scan of a nullary segment visited %d tuples, want 1", n)
	}
}

// TestDecodeBlockRefusesImpossibleCounts: a block whose footer entry and
// header claim more values than its payload can hold fails before its
// value array is sized, so a crafted file cannot make a block read
// allocate count·arity values for a few bytes.
func TestDecodeBlockRefusesImpossibleCounts(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeBlock([]byte{tagInt, 0, tagInt, 0}, 1<<10, 1<<10, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("4 bytes decoded as 2^20 values")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
		t.Fatalf("refusing 4 bytes allocated %d bytes", n)
	}
	if vals, err := decodeBlock([]byte{tagInt, 0, tagInt, 0}, 2, 1, nil); err != nil || len(vals) != 2 {
		t.Fatalf("two one-byte ints: %v, %v", vals, err)
	}
}

// FuzzDecodeBlock feeds arbitrary block payloads to the block decoder:
// it must return an error or exactly count·arity values, never panic,
// and a payload the writer produced must decode to what was written.
func FuzzDecodeBlock(f *testing.F) {
	syms := []symbol.ID{symbol.Intern("a"), symbol.Intern("b")}
	f.Add([]byte{tagInt, 2, tagSym, 1}, uint8(2), uint8(1))
	f.Add([]byte{tagSym, 0, tagInt, 0x7f, tagInt, 1, tagSym, 1}, uint8(2), uint8(2))
	f.Add([]byte{tagSym, 2}, uint8(1), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, arity, count uint8) {
		a, n := int(arity%8), int(count%16)
		vals, err := decodeBlock(data, a, n, syms)
		if err != nil {
			return
		}
		if len(vals) != a*n {
			t.Fatalf("decoded %d values, want %d·%d", len(vals), n, a)
		}
		// Re-encode and decode again: the round trip is the identity.
		var enc []byte
		for _, v := range vals {
			if v.IsInt() {
				enc = binary.AppendVarint(append(enc, tagInt), v.Num)
			} else {
				enc = binary.AppendUvarint(append(enc, tagSym), uint64(slices.Index(syms, v.Sym)))
			}
		}
		again, err := decodeBlock(enc, a, n, syms)
		if err != nil || !slices.Equal(again, vals) {
			t.Fatalf("re-encoded block decodes to %v, %v; want %v", again, err, vals)
		}
	})
}

// FuzzOpen feeds whole files to Open, seeded with a written segment: Open
// must fail with ErrCorruptSegment or return a segment whose full Scan
// yields Len tuples or panics only with ErrCorruptSegment, the typed
// corruption the evaluator's guard recovers.
func FuzzOpen(f *testing.F) {
	data, err := os.ReadFile(writeSegment(f, testTuples(40), 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	nullary, err := os.ReadFile(writeSegment(f, []value.Tuple{{}}, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(nullary)
	path := filepath.Join(f.TempDir(), "f.seg") // one per fuzzing process
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, NewCache(1<<20))
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("Open = %v, want ErrCorruptSegment", err)
			}
			return
		}
		defer s.Close()
		n, short := 0, 0
		if r := func() (r any) {
			defer func() { r = recover() }()
			s.Scan(0, -1, func(_ int, tup value.Tuple) bool {
				if len(tup) != s.Arity() {
					short++
				}
				n++
				return true
			})
			return nil
		}(); r != nil {
			if err, ok := r.(error); !ok || !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("Scan panicked with %v, want ErrCorruptSegment", r)
			}
			return
		}
		if n != s.Len() || short != 0 {
			t.Fatalf("Scan yielded %d tuples (%d not of arity %d), Len %d", n, short, s.Arity(), s.Len())
		}
	})
}

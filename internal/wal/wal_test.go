package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"idlog/internal/core"
	"idlog/internal/fault"
	"idlog/internal/value"
)

func testRecords() []Record {
	return []Record{
		{Session: "", Inserts: []core.Fact{
			{Pred: "e", Tuple: value.Strs("a", "b")},
			{Pred: "n", Tuple: value.Tuple{value.Int(7)}},
		}},
		{Session: "s1", Deletes: []core.Fact{
			{Pred: "e", Tuple: value.Strs("a", "b")},
		}},
		{Session: "s2", Inserts: []core.Fact{
			{Pred: "mixed", Tuple: value.Tuple{value.Str("x"), value.Int(-42), value.Str("")}},
		}, Deletes: []core.Fact{
			{Pred: "empty", Tuple: value.Tuple{}},
		}},
	}
}

// withLSNs returns recs with LSNs assigned from first upward, as Append
// does.
func withLSNs(recs []Record, first uint64) []Record {
	out := make([]Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].LSN = first + uint64(i)
	}
	return out
}

// errSimulatedCrash is armed at fault.WALAppendWrite: the torn append
// leaves a prefix of the record in the file and poisons the log, as a
// process dying mid-write would.
var errSimulatedCrash = errors.New("wal: simulated crash during append")

func mustAppend(t *testing.T, l *Log, recs ...Record) []uint64 {
	t.Helper()
	lsns := make([]uint64, len(recs))
	for i, r := range recs {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	return lsns
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := testRecords()
	lsns := mustAppend(t, l, want...)
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("lsns = %v, want 1..%d", lsns, len(want))
		}
	}
	if l.Entries() != len(want) {
		t.Fatalf("entries = %d, want %d", l.Entries(), len(want))
	}
	if l.LastLSN() != uint64(len(want)) {
		t.Fatalf("last lsn = %d, want %d", l.LastLSN(), len(want))
	}
	l.Close()

	l2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(got, withLSNs(want, 1)) {
		t.Fatalf("replay mismatch:\ngot  %+v\nwant %+v", got, withLSNs(want, 1))
	}
	// Appends continue after a replayed open, and LSNs keep counting.
	extra := Record{Session: "s3", Inserts: []core.Fact{{Pred: "p", Tuple: value.Strs("z")}}}
	lsn, err := l2.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(len(want)+1) {
		t.Fatalf("post-replay lsn = %d, want %d", lsn, len(want)+1)
	}
	l2.Close()
	_, got, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	extra.LSN = lsn
	if len(got) != len(want)+1 || !reflect.DeepEqual(got[len(got)-1], extra) {
		t.Fatalf("post-replay append lost: %+v", got)
	}
}

// TestTornTailSweep truncates a valid log at EVERY byte offset inside
// its final entry and checks recovery: the intact prefix replays, the
// torn entry is dropped whole, and the file is truncated back so new
// appends start clean.
func TestTornTailSweep(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "full.wal")
	l, _, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords()
	var sizes []int64
	for _, r := range want {
		mustAppend(t, l, r)
		sizes = append(sizes, l.Size())
	}
	l.Close()
	full, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	lastStart := sizes[len(sizes)-2]
	for cut := lastStart; cut < int64(len(full)); cut++ {
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, withLSNs(want[:len(want)-1], 1)) {
			t.Fatalf("cut at %d: replayed %d records, want the %d intact ones", cut, len(got), len(want)-1)
		}
		if l.Size() != lastStart {
			t.Fatalf("cut at %d: size %d after recovery, want truncation to %d", cut, l.Size(), lastStart)
		}
		// The recovered log accepts appends and round-trips them; the
		// torn entry's LSN is reused because it was never acknowledged.
		extra := Record{Inserts: []core.Fact{{Pred: "q", Tuple: value.Strs("k")}}}
		lsn, err := l.Append(extra)
		if err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if lsn != uint64(len(want)) {
			t.Fatalf("cut at %d: recovered lsn = %d, want %d", cut, lsn, len(want))
		}
		l.Close()
		_, got, err = Open(path)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		extra.LSN = lsn
		if len(got) != len(want) || !reflect.DeepEqual(got[len(got)-1], extra) {
			t.Fatalf("cut at %d: post-recovery append did not survive", cut)
		}
	}
}

// TestCorruptBody flips a byte in the FIRST entry: that is body
// corruption, and replay must stop there rather than resynchronize on
// later garbage. (Recovery keeps the intact prefix, which is empty.)
func TestCorruptBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	header := l.header
	for _, r := range testRecords() {
		mustAppend(t, l, r)
	}
	l.Close()
	data, _ := os.ReadFile(path)
	data[header+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records past a corrupt first entry", len(recs))
	}
}

func TestBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	if err := os.WriteFile(path, []byte("NOTAWALFILE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("err = %v, want ErrCorruptWAL", err)
	}
}

// TestV1Migration writes a v1-format log by hand and checks Open
// migrates it: records replay with assigned LSNs, the file is
// rewritten as v2, and appends continue the sequence.
func TestV1Migration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	want := testRecords()
	var data []byte
	data = append(data, magicV1...)
	for _, rec := range want {
		// v1 entry: payload without LSN.
		payload := appendString(nil, rec.Session)
		payload = appendFacts(payload, rec.Inserts)
		payload = appendFacts(payload, rec.Deletes)
		entry := appendUvarint(nil, uint64(len(payload)))
		entry = append(entry, payload...)
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
		data = append(data, append(entry, sum[:]...)...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, withLSNs(want, 1)) {
		t.Fatalf("migrated replay mismatch:\ngot  %+v\nwant %+v", got, withLSNs(want, 1))
	}
	extra := Record{Inserts: []core.Fact{{Pred: "p", Tuple: value.Strs("a")}}}
	lsn, err := l.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(len(want)+1) {
		t.Fatalf("post-migration lsn = %d, want %d", lsn, len(want)+1)
	}
	l.Close()
	// The file on disk is now v2.
	head := make([]byte, len(magicV2))
	f, _ := os.Open(path)
	_, _ = io.ReadFull(f, head)
	f.Close()
	if string(head) != magicV2 {
		t.Fatalf("migrated file magic %q, want %q", head, magicV2)
	}
}

// TestAppendFaultPoisonsLog covers the injected write- and fsync-error
// paths and a crash that tears an append: the failing append never
// acknowledges, the log refuses further appends (ErrPoisoned), and
// reopening recovers at least the acknowledged prefix.
func TestAppendFaultPoisonsLog(t *testing.T) {
	disk := errors.New("no space left on device")
	for _, c := range []struct {
		name, point string
		f           fault.Fault
	}{
		{fault.WALAppendWrite, fault.WALAppendWrite, fault.Fault{After: 1, Err: disk}},
		{fault.WALAppendSync, fault.WALAppendSync, fault.Fault{After: 1, Err: disk}},
		// A process dying mid-write: the third append leaves a prefix
		// of its record behind.
		{"crash", fault.WALAppendWrite, fault.Fault{After: 2, Count: 1, Err: errSimulatedCrash}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "w.wal")
			l, _, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			faults := fault.New()
			l.SetFaults(faults)
			faults.Arm(c.point, c.f)
			recs := testRecords()
			acked := c.f.After
			mustAppend(t, l, recs[:acked]...)
			if _, err := l.Append(recs[acked]); !errors.Is(err, c.f.Err) {
				t.Fatalf("faulted append: err = %v, want %v", err, c.f.Err)
			}
			if l.poisoned == nil {
				t.Fatal("log not poisoned after append failure")
			}
			faults.DisarmAll()
			if _, err := l.Append(recs[0]); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("append on poisoned log: err = %v, want ErrPoisoned", err)
			}
			l.Close()

			_, got, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) < acked || !reflect.DeepEqual(got[:acked], withLSNs(recs[:acked], 1)) {
				t.Fatalf("acknowledged records lost after %s: %+v", c.name, got)
			}
			// The sync-fault path may leave the unacknowledged entry on
			// disk (real fsync failure is exactly this ambiguous); a
			// failed or torn write must not.
			if c.point == fault.WALAppendWrite && len(got) != acked {
				t.Fatalf("unacknowledged record survived a write fault: %+v", got)
			}
		})
	}
}

// TestDropRecord: a drop record gains one trailing flags byte and reads
// back through the log and the stream; an ordinary record's bytes have
// no flags byte, and an unknown flag is corruption.
func TestDropRecord(t *testing.T) {
	drop := Record{LSN: 5, Session: "s1", Drop: true}
	plain := Record{LSN: 5, Session: "s1"}
	enc, encPlain := EncodeEntry(drop), EncodeEntry(plain)
	// Payload length, then LSN, session and the two empty fact lists.
	if want := []byte{6, 5, 2, 's', '1', 0, 0}; !bytes.Equal(encPlain[:len(encPlain)-4], want) {
		t.Fatalf("ordinary record encodes as % x, want % x + crc", encPlain, want)
	}
	if len(enc) != len(encPlain)+1 || enc[len(enc)-5] != flagDrop {
		t.Fatalf("drop record encodes as % x", enc)
	}

	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := append(testRecords(), Record{Session: "s2", Drop: true})
	mustAppend(t, l, recs...)
	l.Close()
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, withLSNs(recs, 1)) {
		t.Fatalf("reopened log:\ngot  %+v\nwant %+v", got, withLSNs(recs, 1))
	}
	fr, err := NewStreamReader(bytes.NewReader(AppendEntryFrame(nil, drop))).Next()
	if err != nil || !reflect.DeepEqual(fr.Rec, drop) {
		t.Fatalf("drop frame: %+v, %v", fr.Rec, err)
	}

	payload := append(enc[1:len(enc)-5:len(enc)-5], 2)
	if _, err := decodePayload(payload, 2); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("unknown flags byte: err = %v, want ErrCorruptWAL", err)
	}
}

func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords() {
		mustAppend(t, l, r)
	}
	last := l.LastLSN()
	if _, err := l.ResetWith(last, nil); err != nil {
		t.Fatal(err)
	}
	if l.Entries() != 0 || l.Size() != l.header {
		t.Fatalf("after reset: entries=%d size=%d header=%d", l.Entries(), l.Size(), l.header)
	}
	if l.BaseLSN() != last {
		t.Fatalf("after reset: base lsn %d, want %d", l.BaseLSN(), last)
	}
	extra := Record{Inserts: []core.Fact{{Pred: "p", Tuple: value.Strs("a")}}}
	lsn, err := l.Append(extra)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != last+1 {
		t.Fatalf("post-reset lsn = %d, want %d (LSNs must survive truncation)", lsn, last+1)
	}
	l.Close()
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	extra.LSN = lsn
	if len(got) != 1 || !reflect.DeepEqual(got[0], extra) {
		t.Fatalf("after reset+append: %+v", got)
	}
}

// TestResetWith checks the atomic checkpoint rewrite: consolidation
// records land with fresh LSNs continuing the sequence, the base LSN
// advances, and a reopen replays exactly the consolidated state.
func TestResetWith(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRecords() {
		mustAppend(t, l, r)
	}
	last := l.LastLSN()
	cons := []Record{
		{Session: "s1", Inserts: []core.Fact{{Pred: "k", Tuple: value.Strs("v")}}},
		{Session: "s2", Inserts: []core.Fact{{Pred: "k", Tuple: value.Strs("w")}}},
	}
	out, err := l.ResetWith(last, cons)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].LSN != last+1 || out[1].LSN != last+2 {
		t.Fatalf("consolidation lsns %d,%d, want %d,%d", out[0].LSN, out[1].LSN, last+1, last+2)
	}
	if l.BaseLSN() != last || l.Entries() != 2 || l.LastLSN() != last+2 {
		t.Fatalf("after ResetWith: base=%d entries=%d last=%d", l.BaseLSN(), l.Entries(), l.LastLSN())
	}
	l.Close()
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, out) {
		t.Fatalf("reopen after ResetWith:\ngot  %+v\nwant %+v", got, out)
	}
}

// TestConcurrentAppends races appends from many goroutines (as idlogd
// sessions do) and checks every record survives with a unique LSN in
// file order.
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.wal")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := Record{Session: "s", Inserts: []core.Fact{{Pred: "p", Tuple: value.Ints(int64(w*per + i))}}}
				if _, err := l.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(got), workers*per)
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d: file order must equal LSN order", i, r.LSN)
		}
	}
}

// TestStreamCodecRoundTrip frames records and controls, then decodes
// them back.
func TestStreamCodecRoundTrip(t *testing.T) {
	recs := withLSNs(testRecords(), 7)
	var b []byte
	b = AppendControlFrame(b, FrameHeartbeat, 6)
	for _, r := range recs {
		b = AppendEntryFrame(b, r)
	}
	b = AppendControlFrame(b, FrameEOS, 9)

	sr := NewStreamReader(bytes.NewReader(b))
	f, err := sr.Next()
	if err != nil || f.Type != FrameHeartbeat || f.LSN != 6 {
		t.Fatalf("heartbeat: %+v %v", f, err)
	}
	for i, want := range recs {
		f, err := sr.Next()
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if f.Type != FrameEntry || f.LSN != want.LSN || !reflect.DeepEqual(f.Rec, want) {
			t.Fatalf("entry %d: %+v, want %+v", i, f.Rec, want)
		}
	}
	if f, err = sr.Next(); err != nil || f.Type != FrameEOS || f.LSN != 9 {
		t.Fatalf("eos: %+v %v", f, err)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after eos: %v, want io.EOF", err)
	}
}

// TestStreamTornAtEveryByte cuts a framed stream at every byte offset:
// decoding must yield only whole frames and then either a clean EOF (a
// cut between frames) or ErrTornStream — never a corrupt record.
func TestStreamTornAtEveryByte(t *testing.T) {
	recs := withLSNs(testRecords(), 1)
	var b []byte
	for _, r := range recs {
		b = AppendEntryFrame(b, r)
	}
	for cut := 0; cut <= len(b); cut++ {
		sr := NewStreamReader(bytes.NewReader(b[:cut]))
		n := 0
		for {
			f, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrTornStream) {
					t.Fatalf("cut %d: err = %v, want ErrTornStream", cut, err)
				}
				break
			}
			if !reflect.DeepEqual(f.Rec, recs[n]) {
				t.Fatalf("cut %d: frame %d decoded wrong", cut, n)
			}
			n++
		}
	}
}

// FuzzStreamReader drives the replication frame decoder. A stream that
// AppendControlFrame and AppendEntryFrame build from the fuzzed values
// decodes back to exactly those frames and then a clean io.EOF. Raw
// bytes never panic the decoder, and every error it returns on them,
// except io.EOF between frames, wraps ErrTornStream.
func FuzzStreamReader(f *testing.F) {
	var framed []byte
	for _, r := range withLSNs(testRecords(), 1) {
		framed = AppendEntryFrame(framed, r)
	}
	framed = AppendControlFrame(framed, FrameEOS, 3)
	f.Add(framed, uint64(1), "s", "e", int64(7))
	f.Add(framed[:len(framed)/2], uint64(0), "", "", int64(0))
	f.Add([]byte{FrameEntry, 0xff, 0xff, 0xff, 0x7f}, uint64(1)<<63, "x", "p", int64(-1))
	f.Add([]byte("Hz"), uint64(300), "\xff", "q r", int64(1)<<40)
	f.Fuzz(func(t *testing.T, raw []byte, lsn uint64, session, pred string, n int64) {
		sr := NewStreamReader(bytes.NewReader(raw))
		for {
			_, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrTornStream) {
					t.Fatalf("raw stream: err = %v, want ErrTornStream", err)
				}
				break
			}
		}

		rec := Record{LSN: lsn, Session: session,
			Inserts: []core.Fact{{Pred: pred, Tuple: value.Tuple{value.Str(session), value.Int(n)}}},
			Deletes: []core.Fact{{Pred: pred, Tuple: value.Tuple{value.Int(n)}}}}
		type control struct {
			typ byte
			lsn uint64
		}
		controls := []control{{FrameHeartbeat, lsn}, {FrameResync, lsn + 1}, {FrameEOS, lsn ^ 1}}
		var b []byte
		b = AppendControlFrame(b, controls[0].typ, controls[0].lsn)
		b = AppendEntryFrame(b, rec)
		b = AppendControlFrame(b, controls[1].typ, controls[1].lsn)
		b = AppendControlFrame(b, controls[2].typ, controls[2].lsn)
		sr = NewStreamReader(bytes.NewReader(b))
		next := func() Frame {
			t.Helper()
			fr, err := sr.Next()
			if err != nil {
				t.Fatalf("framed stream: %v", err)
			}
			return fr
		}
		if fr := next(); fr.Type != controls[0].typ || fr.LSN != controls[0].lsn {
			t.Fatalf("control frame %+v, want %+v", fr, controls[0])
		}
		if fr := next(); fr.Type != FrameEntry || fr.LSN != lsn || !reflect.DeepEqual(fr.Rec, rec) {
			t.Fatalf("entry frame %+v, want %+v", fr.Rec, rec)
		}
		for _, c := range controls[1:] {
			if fr := next(); fr.Type != c.typ || fr.LSN != c.lsn {
				t.Fatalf("control frame %+v, want %+v", fr, c)
			}
		}
		if _, err := sr.Next(); err != io.EOF {
			t.Fatalf("after the last frame: %v, want io.EOF", err)
		}
	})
}

// TestStreamLengthCostsNoAllocation: an entry frame claiming a payload
// just under the plausibility cap, followed by nothing, is torn, and
// decoding it allocates what arrived, not what the length claims.
func TestStreamLengthCostsNoAllocation(t *testing.T) {
	frame := binary.AppendUvarint([]byte{FrameEntry}, maxPayload-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewStreamReader(bytes.NewReader(frame)).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTornStream) {
		t.Fatalf("err = %v, want ErrTornStream", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a torn %d-byte frame allocated %d bytes", len(frame), grew)
	}
}

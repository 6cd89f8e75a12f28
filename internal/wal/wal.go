// Package wal is idlogd's append-only write-ahead log for EDB
// mutations. Every acknowledged mutation is appended and fsynced
// BEFORE the in-memory snapshot advances, so a crash loses nothing
// that was acknowledged; on restart the daemon replays the log over
// the last checkpoint snapshot. Entries carry log sequence numbers
// (LSNs) that order every mutation globally, which is what hot-standby
// replication ships to followers (see stream.go for the wire framing).
//
// Format v2 (integers are uvarint unless noted):
//
//	magic "IDLOGWAL2"
//	baseLSN (LSN as of the checkpoint snapshot the log sits on; 0 on a
//	         fresh log)
//	per entry:
//	  payloadLen
//	  payload:
//	    lsn (strictly increasing, first > baseLSN)
//	    sessionLen, session
//	    insertCount, then per fact:
//	      predLen, pred
//	      arity, then per column: tag 'u' (strLen, str) or 'i' (zigzag)
//	    deleteCount, facts as above
//	    flags (one byte, written only on drop records: 1 = the session
//	           was dropped; every other record ends at its deletes, so
//	           it is byte-identical to the format before the flag)
//	  crc32 of payload (IEEE, 4 bytes big-endian)
//
// v1 logs ("IDLOGWAL1", no LSNs) are migrated in place on Open:
// entries are assigned LSNs 1..n and the file is atomically rewritten
// in v2 format.
//
// The trailing entry of a crashed process may be torn. Open detects
// that — short length, short payload, or checksum mismatch — and
// truncates the file back to the last intact entry, mirroring the
// corruption discipline of internal/storage: a torn entry is dropped
// whole, never half-applied. Corruption BEFORE the tail (a bad entry
// followed by readable ones) is not recoverable and fails Open.
//
// Error discipline: the first append that fails — a short write, a
// failed fsync, or an injected ENOSPC/EIO fault — POISONS the log.
// The entry was never acknowledged, the tail of the file is in an
// unknown state (fsync failure means the kernel may have dropped the
// page and cleared the error), so no further appends are accepted
// until the process restarts and Open re-establishes the durable
// prefix. Callers surface this as read-only degraded mode.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"idlog/internal/core"
	"idlog/internal/fault"
	"idlog/internal/symbol"
	"idlog/internal/value"
)

const (
	magicV1 = "IDLOGWAL1"
	magicV2 = "IDLOGWAL2"
)

// maxStringLen and maxCount bound decoded lengths as corruption guards.
const (
	maxStringLen = 1 << 20
	maxCount     = 1 << 24
	maxPayload   = 1 << 28
)

// ErrCorruptWAL reports a log that is not a WAL at all, or whose body
// (not tail) is damaged. Every such failure wraps it.
var ErrCorruptWAL = errors.New("corrupt write-ahead log")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("wal: %s: %w", fmt.Sprintf(format, args...), ErrCorruptWAL)
}

// ErrPoisoned is returned by Append after any earlier append failed:
// the durable tail is in an unknown state and only a restart (Open)
// re-establishes it. The first failure's cause is wrapped alongside.
var ErrPoisoned = errors.New("wal: log poisoned by an earlier append failure")

// Record is one durable change to idlogd's state. Session addresses the
// idlogd session it applies to ("" for the base session). A record
// either carries a mutation batch (Inserts, Deletes) or, with Drop set
// and no facts, removes the session. LSN is the global mutation
// sequence number: assigned by Append on the primary, carried through
// replication, preserved by a follower's own log.
type Record struct {
	LSN     uint64
	Session string
	Inserts []core.Fact
	Deletes []core.Fact
	Drop    bool
}

// flagDrop is the payload's trailing flags byte on a drop record.
const flagDrop byte = 1

// Log is an open write-ahead log. Safe for concurrent use: appends on
// behalf of different idlogd sessions may race, and the internal lock
// makes the (LSN assignment, file append) pair atomic so LSN order
// always equals file order.
type Log struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	size     int64
	header   int64 // size of the magic+baseLSN header
	entries  int
	baseLSN  uint64 // LSN covered by the snapshot under this log
	nextLSN  uint64
	poisoned error // first append failure; sticky until reopen
	faults   *fault.Registry
}

// Open opens (or creates) the log at path, replays every intact entry,
// truncates a torn tail, and returns the log positioned for appends
// together with the replayed records (LSNs populated). v1 logs are
// migrated to v2 in place.
func Open(path string) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &Log{path: path, f: f, nextLSN: 1}
	if st.Size() == 0 {
		hdr := appendHeader(nil, 0)
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.size = int64(len(hdr))
		l.header = l.size
		return l, nil, nil
	}

	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if len(data) >= len(magicV1) && string(data[:len(magicV1)]) == magicV1 {
		// v1 log: decode without LSNs, then migrate the file to v2.
		recs, _ := scanEntries(data, len(magicV1), 1, 0)
		for i := range recs {
			recs[i].LSN = uint64(i + 1)
		}
		f.Close()
		l.f = nil
		if err := l.resetWithLocked(0, recs); err != nil {
			return nil, nil, fmt.Errorf("wal: migrate v1 log: %w", err)
		}
		return l, recs, nil
	}
	if len(data) < len(magicV2) || string(data[:len(magicV2)]) != magicV2 {
		f.Close()
		return nil, nil, corruptf("bad magic (not an IDLOG WAL)")
	}
	base, n := binary.Uvarint(data[len(magicV2):])
	if n <= 0 {
		f.Close()
		return nil, nil, corruptf("truncated header")
	}
	l.header = int64(len(magicV2) + n)
	l.baseLSN = base
	l.nextLSN = base + 1

	recs, valid := scanEntries(data, int(l.header), 2, base)
	if len(recs) > 0 {
		l.nextLSN = recs[len(recs)-1].LSN + 1
	}
	l.entries = len(recs)
	if int64(valid) != st.Size() {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	l.size = int64(valid)
	return l, recs, nil
}

// scanEntries decodes entries from off until the data ends or an entry
// fails to decode (torn tail). version selects the payload layout;
// prevLSN seeds the monotonicity check for v2.
func scanEntries(data []byte, off, version int, prevLSN uint64) (recs []Record, valid int) {
	valid = off
	for off < len(data) {
		rec, next, ok := decodeEntry(data, off, version)
		if !ok {
			break
		}
		if version == 2 && rec.LSN <= prevLSN {
			// An LSN regression behind a valid checksum is a format
			// violation; recovery drops the entry (and its successors)
			// whole, like any other undecodable tail.
			break
		}
		prevLSN = rec.LSN
		recs = append(recs, rec)
		off = next
		valid = next
	}
	return recs, valid
}

// decodeEntry parses one entry at off; ok is false when the entry is
// torn or damaged (the caller truncates there).
func decodeEntry(data []byte, off, version int) (Record, int, bool) {
	plen, n := binary.Uvarint(data[off:])
	if n <= 0 || plen > maxPayload {
		return Record{}, 0, false
	}
	start := off + n
	end := start + int(plen)
	if end+4 > len(data) {
		return Record{}, 0, false
	}
	payload := data[start:end]
	want := binary.BigEndian.Uint32(data[end : end+4])
	if crc32.ChecksumIEEE(payload) != want {
		return Record{}, 0, false
	}
	rec, err := decodePayload(payload, version)
	if err != nil {
		// The checksum matched but the payload does not parse: that is
		// body corruption (or a format bug), not a torn tail, yet the
		// recovery contract is the same — the entry is dropped whole.
		return Record{}, 0, false
	}
	return rec, end + 4, true
}

type payloadReader struct {
	b   []byte
	off int
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, corruptf("truncated varint")
	}
	p.off += n
	return v, nil
}

func (p *payloadReader) varint() (int64, error) {
	v, n := binary.Varint(p.b[p.off:])
	if n <= 0 {
		return 0, corruptf("truncated varint")
	}
	p.off += n
	return v, nil
}

func (p *payloadReader) str() (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen || p.off+int(n) > len(p.b) {
		return "", corruptf("implausible string length %d", n)
	}
	s := string(p.b[p.off : p.off+int(n)])
	p.off += int(n)
	return s, nil
}

func (p *payloadReader) byte() (byte, error) {
	if p.off >= len(p.b) {
		return 0, corruptf("truncated payload")
	}
	b := p.b[p.off]
	p.off++
	return b, nil
}

func (p *payloadReader) facts() ([]core.Fact, error) {
	n, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxCount {
		return nil, corruptf("implausible fact count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	facts := make([]core.Fact, 0, n)
	for i := uint64(0); i < n; i++ {
		pred, err := p.str()
		if err != nil {
			return nil, err
		}
		arity, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if arity > 1<<16 {
			return nil, corruptf("implausible arity %d", arity)
		}
		t := make(value.Tuple, arity)
		for c := uint64(0); c < arity; c++ {
			tag, err := p.byte()
			if err != nil {
				return nil, err
			}
			switch tag {
			case 'i':
				v, err := p.varint()
				if err != nil {
					return nil, err
				}
				t[c] = value.Int(v)
			case 'u':
				s, err := p.str()
				if err != nil {
					return nil, err
				}
				t[c] = value.Str(s)
			default:
				return nil, corruptf("bad value tag %q", tag)
			}
		}
		facts = append(facts, core.Fact{Pred: pred, Tuple: t})
	}
	return facts, nil
}

func decodePayload(b []byte, version int) (Record, error) {
	p := &payloadReader{b: b}
	var rec Record
	var err error
	if version >= 2 {
		if rec.LSN, err = p.uvarint(); err != nil {
			return rec, err
		}
	}
	if rec.Session, err = p.str(); err != nil {
		return rec, err
	}
	if rec.Inserts, err = p.facts(); err != nil {
		return rec, err
	}
	if rec.Deletes, err = p.facts(); err != nil {
		return rec, err
	}
	if p.off < len(b) {
		if flags, _ := p.byte(); flags != flagDrop {
			return rec, corruptf("bad record flags %#x", flags)
		}
		rec.Drop = true
	}
	if p.off != len(b) {
		return rec, corruptf("%d trailing payload bytes", len(b)-p.off)
	}
	return rec, nil
}

func appendUvarint(b []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return append(b, buf[:binary.PutUvarint(buf[:], v)]...)
}

func appendVarint(b []byte, v int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return append(b, buf[:binary.PutVarint(buf[:], v)]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFacts(b []byte, facts []core.Fact) []byte {
	b = appendUvarint(b, uint64(len(facts)))
	for _, f := range facts {
		b = appendString(b, f.Pred)
		b = appendUvarint(b, uint64(len(f.Tuple)))
		for _, v := range f.Tuple {
			if v.IsInt() {
				b = append(b, 'i')
				b = appendVarint(b, v.Num)
			} else {
				b = append(b, 'u')
				b = appendString(b, symbol.Name(v.Sym))
			}
		}
	}
	return b
}

// appendHeader renders the v2 file header.
func appendHeader(b []byte, baseLSN uint64) []byte {
	b = append(b, magicV2...)
	return appendUvarint(b, baseLSN)
}

// EncodeEntry renders rec (including rec.LSN) as one v2 log entry —
// length, payload, checksum. The same bytes frame replication stream
// entries, so a follower decodes the stream with the code that decodes
// its own log.
func EncodeEntry(rec Record) []byte {
	payload := appendUvarint(nil, rec.LSN)
	payload = appendString(payload, rec.Session)
	payload = appendFacts(payload, rec.Inserts)
	payload = appendFacts(payload, rec.Deletes)
	if rec.Drop {
		payload = append(payload, flagDrop)
	}
	entry := appendUvarint(nil, uint64(len(payload)))
	entry = append(entry, payload...)
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	return append(entry, sum[:]...)
}

// SetFaults arms registry-driven fault injection (write and fsync
// failures at the fault.WALAppend* points). Nil disarms.
func (l *Log) SetFaults(r *fault.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = r
}

// Append assigns rec the next LSN (or honors a pre-assigned rec.LSN —
// the follower path, which preserves the primary's numbering), encodes
// it, writes it, and fsyncs before returning: when Append returns a
// nil error the record survives any crash. The caller must only
// acknowledge (and apply) the mutation after Append succeeds. Any
// failure poisons the log — see ErrPoisoned.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.poisoned != nil {
		return 0, fmt.Errorf("%w (first failure: %v)", ErrPoisoned, l.poisoned)
	}
	if rec.LSN == 0 {
		rec.LSN = l.nextLSN
	} else if rec.LSN < l.nextLSN {
		return 0, fmt.Errorf("wal: append LSN %d behind log position %d", rec.LSN, l.nextLSN)
	}
	entry := EncodeEntry(rec)

	if err := l.faults.Hit(fault.WALAppendWrite); err != nil {
		// Injected ENOSPC/EIO mid-write: a prefix reaches the file, the
		// write call errors, the log is poisoned.
		torn := entry[:len(entry)/2]
		if _, werr := l.f.Write(torn); werr == nil {
			_ = l.f.Sync()
			l.size += int64(len(torn))
		}
		l.poisoned = err
		return 0, err
	}

	if _, err := l.f.Write(entry); err != nil {
		l.poisoned = err
		return 0, err
	}
	if err := l.faults.Hit(fault.WALAppendSync); err != nil {
		// Injected fsync failure: the bytes may or may not be durable —
		// exactly the ambiguity real fsync errors leave — so the entry
		// is not acknowledged and the log is poisoned. If the bytes did
		// survive, restart replays an unacknowledged mutation, which the
		// durability contract permits (acked entries always survive;
		// unacked ones may).
		l.size += int64(len(entry))
		l.poisoned = err
		return 0, err
	}
	if err := l.f.Sync(); err != nil {
		l.poisoned = err
		return 0, err
	}
	l.size += int64(len(entry))
	l.entries++
	l.nextLSN = rec.LSN + 1
	return rec.LSN, nil
}

// ResetWith atomically replaces the log with a fresh one sitting on a
// checkpoint at baseLSN, pre-populated with recs (assigned LSNs
// baseLSN+1..baseLSN+len(recs), returned with those LSNs set). The
// replacement is write-to-temp + fsync + rename + directory fsync, so
// a crash at ANY point leaves either the old complete log or the new
// complete log — never a truncated-but-unconsolidated state (the
// failure mode of truncate-then-append checkpointing, which could lose
// acknowledged session facts).
func (l *Log) ResetWith(baseLSN uint64, recs []Record) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(recs))
	copy(out, recs)
	for i := range out {
		out[i].LSN = baseLSN + uint64(i) + 1
	}
	if err := l.resetWithLocked(baseLSN, out); err != nil {
		return nil, err
	}
	return out, nil
}

// resetWithLocked rewrites the log file; recs must carry their LSNs.
// Callers hold l.mu (or own the log exclusively during Open
// migration).
func (l *Log) resetWithLocked(baseLSN uint64, recs []Record) error {
	data := appendHeader(nil, baseLSN)
	header := int64(len(data))
	for _, rec := range recs {
		data = append(data, EncodeEntry(rec)...)
	}
	tmp := l.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tf.Write(data); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		tf.Close()
		os.Remove(tmp)
		return err
	}
	// Fsync the directory so the rename itself is durable.
	if d, err := os.Open(filepath.Dir(l.path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	if l.f != nil {
		_ = l.f.Close()
	}
	l.f = tf
	if _, err := tf.Seek(int64(len(data)), io.SeekStart); err != nil {
		return err
	}
	l.size = int64(len(data))
	l.header = header
	l.entries = len(recs)
	l.baseLSN = baseLSN
	if len(recs) > 0 {
		l.nextLSN = recs[len(recs)-1].LSN + 1
	} else {
		l.nextLSN = baseLSN + 1
	}
	l.poisoned = nil
	return nil
}

// Size returns the current file size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Entries returns the number of intact entries appended or replayed
// since open (or the last ResetWith).
func (l *Log) Entries() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries
}

// BaseLSN returns the LSN covered by the checkpoint snapshot this log
// sits on (0 for a never-checkpointed log).
func (l *Log) BaseLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.baseLSN
}

// LastLSN returns the LSN of the last durable entry (or the base LSN
// when the log is empty of entries).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close closes the underlying file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

package idlog

import (
	"io"
	"os"
	"sync"

	"idlog/internal/segment"
	"idlog/internal/storage"
)

// Disk-engine entry points. The in-memory engine remains the default;
// these functions open, create, and checkpoint databases whose frozen
// relations live in block-indexed segment files (internal/segment)
// behind a shared LRU block cache, so EDBs larger than RAM evaluate
// within a bounded resident set. Engine choice is invisible to
// evaluation: a disk-backed Database is the same *Database, produces
// byte-identical fingerprints, and accepts the same mutations (inserts
// overlay in memory; deletions patch positions, and the segment stays
// on disk).

// BulkLoadStats summarizes a bulk load; see BulkLoadFacts.
type BulkLoadStats = storage.BulkStats

// OpenDiskDatabase opens the disk-backed database in dir (written by
// SaveDiskDatabase or BulkLoadFacts). cacheBytes bounds the decoded-
// block cache shared by the database's segments; 0 uses the process
// default (64 MiB). The returned database is unfrozen, like LoadSnapshot's.
func OpenDiskDatabase(dir string, cacheBytes int64) (*Database, error) {
	e := storage.Engine{Kind: storage.EngineDisk, Dir: dir, CacheBytes: cacheBytes}
	return storage.OpenDir(dir, e.Cache())
}

// SetDiskCacheBytes resizes the process-wide decoded-block cache shared
// by every disk database opened without an explicit budget — the
// library-level equivalent of the CLI's -cache-mb flag. It applies
// immediately: shrinking below current residency evicts LRU blocks.
// Callers that pass cacheBytes > 0 to OpenDiskDatabase get a private
// cache and are unaffected. n must be positive; a separate per-open
// budget of 0 keeps meaning "use this process default".
func SetDiskCacheBytes(n int64) {
	if n > 0 {
		segment.DefaultCache().Resize(n)
	}
}

// DiskCacheStats reports the process-default block cache's cumulative
// hit/miss counters and current resident bytes.
func DiskCacheStats() (hits, misses uint64, bytes int64) {
	c := segment.DefaultCache()
	hits, misses = c.Stats()
	return hits, misses, c.Bytes()
}

// SaveDiskDatabase checkpoints db into dir as segment files, streaming
// relation by relation and atomically swinging the directory manifest,
// so a crash mid-write leaves the previous generation intact.
func SaveDiskDatabase(dir string, db *Database) error {
	return storage.WriteDir(dir, db)
}

// BulkLoadFacts streams ground facts in concrete syntax ("edge(a, b).")
// from r into a fresh disk database at dir without ever materializing a
// relation in memory — the load path for EDBs that do not fit in RAM.
// Open the result with OpenDiskDatabase.
func BulkLoadFacts(dir string, r io.Reader) (BulkLoadStats, error) {
	return storage.BulkLoad(dir, r)
}

// BulkLoadFactsFile is BulkLoadFacts reading from a file.
func BulkLoadFactsFile(dir, factsPath string) (BulkLoadStats, error) {
	return storage.BulkLoadFile(dir, factsPath)
}

// diskTest reports whether the IDLOG_ENGINE=disk test seam is armed:
// the environment knob that re-routes every EvalContext-family call
// through a disk-backed copy of its database, so the entire test suite
// exercises the disk engine (IDLOG_ENGINE=disk go test ./...) with no
// per-test changes.
var diskTest = sync.OnceValue(func() bool {
	return os.Getenv("IDLOG_ENGINE") == string(storage.EngineDisk)
})

// engineTestDB is the seam itself: under IDLOG_ENGINE=disk it spills db
// to a temporary segment directory and reopens it disk-backed. The
// directory is unlinked immediately — the open segment files keep the
// data readable (POSIX) and release on GC — so tests leave nothing
// behind. A frozen database's spilled copy is memoized by version (see
// spilled), so repeated runs over an unchanged database see one
// disk-backed version and hit the plan cache as they do in memory.
// Without the knob it returns db untouched.
func engineTestDB(db *Database) (*Database, error) {
	if db == nil || !diskTest() || len(db.Names()) == 0 {
		return db, nil
	}
	if ddb := spilled.get(db); ddb != nil {
		return ddb, nil
	}
	dir, err := os.MkdirTemp("", "idlog-disk-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := storage.WriteDir(dir, db); err != nil {
		return nil, err
	}
	ddb, err := storage.OpenDir(dir, nil)
	if err != nil {
		return nil, err
	}
	if db.Frozen() {
		ddb.Freeze()
		spilled.put(db, ddb)
	}
	return ddb, nil
}

// spilled memoizes the seam's disk-backed copies of frozen databases,
// keyed by version: versions are process-unique and a frozen database
// cannot change, so a version names its contents. It holds at most
// spillMemoSize copies (a test reruns the database it just ran) and no
// reference to the databases themselves.
var spilled spillMemo

const spillMemoSize = 8

type spillMemo struct {
	mu     sync.Mutex
	copies map[uint64]*Database
}

func (m *spillMemo) get(db *Database) *Database {
	if !db.Frozen() {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.copies[db.Version()]
}

func (m *spillMemo) put(db, ddb *Database) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.copies == nil || len(m.copies) == spillMemoSize {
		m.copies = make(map[uint64]*Database, spillMemoSize)
	}
	m.copies[db.Version()] = ddb
}

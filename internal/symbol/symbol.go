// Package symbol provides an interned symbol table for the uninterpreted
// constants (sort u) of IDLOG's two-sorted universe.
//
// The paper (§2.1) draws u-constants from a countably infinite universal
// domain U; at runtime every distinct constant name is interned once and
// referenced by a dense integer ID, so tuples store fixed-size words and
// comparisons are integer comparisons.
//
// A process-wide default table serves the common case; independent Table
// values can be created for isolation (e.g. fuzzing).
package symbol

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// ID is a dense handle for an interned u-constant. The zero ID is reserved
// and never returned by Intern, so a zero Value is detectably invalid.
type ID uint32

// None is the reserved invalid symbol ID.
const None ID = 0

// Table interns strings to dense IDs. It is safe for concurrent use.
//
// Name and Hash are lock-free. Slot i of the names and hashes arrays
// holds the name of ID i and its content hash; a slot is written once,
// under mu, before n grows to cover it, and never again. Growing the
// arrays copies them and publishes the copies before n moves past the
// old length, so a reader that loads n first and an array second
// always finds its slot filled. The hashes sit in an array of their
// own so that the names array, which sorting reads at random, stays as
// dense as a plain []string.
type Table struct {
	mu     sync.RWMutex // guards ids and writes of names, hashes and n
	ids    map[string]ID
	names  atomic.Pointer[[]string] // slot 0 is the reserved ID
	hashes atomic.Pointer[[]uint64] // as long as names
	n      atomic.Uint32            // IDs issued, the reserved one included
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	t := &Table{ids: make(map[string]ID)}
	names, hashes := make([]string, 64), make([]uint64, 64)
	t.names.Store(&names)
	t.hashes.Store(&hashes)
	t.n.Store(1)
	return t
}

// add issues the next ID to name; t.mu is held. name must not alias a
// larger string: the table keeps it for the life of the process.
func (t *Table) add(name string) ID {
	names, hashes := *t.names.Load(), *t.hashes.Load()
	id := ID(t.n.Load())
	if int(id) == len(names) {
		grown, grownHashes := make([]string, 2*len(names)), make([]uint64, 2*len(names))
		copy(grown, names)
		copy(grownHashes, hashes)
		names, hashes = grown, grownHashes
		t.names.Store(&grown)
		t.hashes.Store(&grownHashes)
	}
	names[id] = name
	hashes[id] = hashName(name)
	t.ids[name] = id
	t.n.Store(uint32(id) + 1)
	return id
}

// hashName is FNV-1a over the name's bytes followed by the splitmix64
// finalizer, so every output bit depends on every byte. It reads only
// the name, so the same name hashes alike in every table and process.
func hashName(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ h>>31
}

// Intern returns the ID for name, creating it if necessary. A new name
// is copied first, so interning a substring never pins the text it was
// cut from.
func (t *Table) Intern(name string) ID {
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	return t.internNew(strings.Clone(name))
}

// InternBytes is Intern for a name held in a byte slice. A hit
// allocates nothing; only a new name is copied into a string.
func (t *Table) InternBytes(name []byte) ID {
	t.mu.RLock()
	id, ok := t.ids[string(name)]
	t.mu.RUnlock()
	if ok {
		return id
	}
	return t.internNew(string(name))
}

// internNew interns an owned name that a read-locked lookup missed.
func (t *Table) internNew(name string) ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	return t.add(name)
}

// Lookup returns the ID for name without interning. ok is false if the
// name has never been interned.
func (t *Table) Lookup(name string) (id ID, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok = t.ids[name]
	return id, ok
}

// Name returns the string for id without taking a lock. Unknown or
// reserved IDs yield a diagnostic placeholder rather than panicking, so
// printers stay total.
func (t *Table) Name(id ID) string {
	if id == None || uint32(id) >= t.n.Load() {
		return fmt.Sprintf("<sym:%d>", uint32(id))
	}
	return (*t.names.Load())[id]
}

// Hash returns the content hash of id's name without taking a lock: a
// 64-bit hash computed once, at intern, from the name alone. Unlike the
// ID, which depends on the order names were interned in, it is the same
// for a name in every table and every process. Unknown or reserved IDs
// hash to 0.
func (t *Table) Hash(id ID) uint64 {
	if uint32(id) >= t.n.Load() {
		return 0
	}
	return (*t.hashes.Load())[id] // slot 0, the reserved ID's, stays 0
}

// Len reports the number of interned symbols (excluding the reserved slot).
func (t *Table) Len() int { return int(t.n.Load()) - 1 }

// Fresh interns a name of the form prefix#n that is not yet present and
// returns it. It is used for invented values (DL semantics) and for
// gensym'd predicates in program transformations. The name is built by
// formatting, so it never aliases the caller's prefix.
func (t *Table) Fresh(prefix string) (ID, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for n := int(t.n.Load()); ; n++ {
		name := fmt.Sprintf("%s#%d", prefix, n)
		if _, ok := t.ids[name]; ok {
			continue
		}
		return t.add(name), name
	}
}

var defaultTable = NewTable()

// Default returns the process-wide symbol table.
func Default() *Table { return defaultTable }

// Intern interns name in the default table.
func Intern(name string) ID { return defaultTable.Intern(name) }

// InternBytes interns name in the default table.
func InternBytes(name []byte) ID { return defaultTable.InternBytes(name) }

// Name resolves id in the default table.
func Name(id ID) string { return defaultTable.Name(id) }

// Hash returns the content hash of id in the default table.
func Hash(id ID) uint64 { return defaultTable.Hash(id) }

package storage

import (
	"fmt"

	"idlog/internal/segment"
)

// EngineKind selects where EDB relations live.
type EngineKind string

const (
	// EngineMem is the default: relations are in-memory hash tables,
	// snapshots use the IDLOGDB2 single-file format.
	EngineMem EngineKind = "mem"
	// EngineDisk stores frozen relations in block-indexed segment
	// files under a data directory (see internal/segment and WriteDir);
	// queries stream blocks through a byte-budgeted cache, so EDBs
	// larger than RAM evaluate within a bounded resident set.
	EngineDisk EngineKind = "disk"
)

// ParseEngineKind validates an -engine flag value.
func ParseEngineKind(s string) (EngineKind, error) {
	switch EngineKind(s) {
	case EngineMem, EngineDisk, "":
		if s == "" {
			return EngineMem, nil
		}
		return EngineKind(s), nil
	default:
		return "", fmt.Errorf("storage: unknown engine %q (want mem or disk)", s)
	}
}

// Engine is the resolved storage-engine selection shared by the CLI,
// REPL, and idlogd: which backend, where its files live, and how much
// memory its block cache may use.
type Engine struct {
	Kind EngineKind
	// Dir is the data directory for the disk engine (segment files +
	// MANIFEST).
	Dir string
	// CacheBytes bounds the decoded-block LRU cache; 0 means the
	// segment package default (64 MiB).
	CacheBytes int64

	cache *segment.Cache
}

// Disk reports whether the disk engine is selected.
func (e *Engine) Disk() bool { return e.Kind == EngineDisk }

// Cache returns the engine's block cache, creating it on first use
// (the process default when CacheBytes is 0). All segments opened
// through this Engine share it, so CacheBytes bounds total decoded
// memory.
func (e *Engine) Cache() *segment.Cache {
	if e.cache == nil {
		if e.CacheBytes > 0 {
			e.cache = segment.NewCache(e.CacheBytes)
		} else {
			e.cache = segment.DefaultCache()
		}
	}
	return e.cache
}

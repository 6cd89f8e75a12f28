package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"idlog/internal/parser"
	"idlog/internal/segment"
	"idlog/internal/value"
)

// BulkStats summarizes a bulk load.
type BulkStats struct {
	// Relations is the number of distinct predicates loaded.
	Relations int
	// Tuples is the number of distinct facts written.
	Tuples int64
	// Duplicates counts facts that repeated an earlier one.
	Duplicates int64
}

// BulkLoad streams ground facts in concrete syntax ("edge(a, b).")
// from src directly into segment files under dir, producing a
// disk-engine data directory ready for OpenDir. The whole pipeline is
// streaming: parser.Facts reads src through one window and hands each
// tuple straight to its predicate's segment writer, so resident memory
// is the window, the longest fact and per-tuple metadata (dedup
// hashes), never the decoded relations — this is the path for EDBs that
// do not fit in RAM.
//
// dir must not already contain a manifest (bulk load creates a
// database, it does not merge into one). Facts may arrive in any
// predicate order; the text is read by the same scanner as every other
// fact reader (% and // comments, quoted constants, positions counted
// from the start of src), and rules and non-ground facts are rejected.
func BulkLoad(dir string, src io.Reader) (BulkStats, error) {
	var stats BulkStats
	if DirExists(dir) {
		return stats, fmt.Errorf("storage: %s already holds a database (bulk load needs a fresh directory)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, err
	}
	type wstate struct {
		w    *segment.Writer
		file string
	}
	writers := make(map[string]*wstate)
	fail := func(err error) (BulkStats, error) {
		for _, ws := range writers {
			ws.w.Abort()
		}
		return stats, err
	}
	gen := nextGen(dir)
	err := parser.Facts(src, func(pred string, tuple value.Tuple) error {
		ws := writers[pred]
		if ws == nil {
			file := segFileName(gen, len(writers))
			w, err := segment.Create(filepath.Join(dir, file+".tmp"), pred, len(tuple))
			if err != nil {
				return err
			}
			ws = &wstate{w: w, file: file}
			writers[pred] = ws
		}
		added, err := ws.w.Add(tuple)
		if err != nil {
			return err
		}
		if added {
			stats.Tuples++
		} else {
			stats.Duplicates++
		}
		return nil
	})
	if err != nil {
		return fail(fmt.Errorf("storage: bulk load: %w", err))
	}
	names := make([]string, 0, len(writers))
	for name := range writers {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintln(&b, manifestMagic)
	for _, name := range names {
		ws := writers[name]
		arity, count := wsMeta(ws.w)
		if err := ws.w.Finish(); err != nil {
			return fail(err)
		}
		if err := os.Rename(filepath.Join(dir, ws.file+".tmp"), filepath.Join(dir, ws.file)); err != nil {
			return fail(err)
		}
		fmt.Fprintf(&b, "%s %q %d %d\n", ws.file, name, arity, count)
	}
	stats.Relations = len(writers)
	mtmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(mtmp, []byte(b.String()), 0o644); err != nil {
		return stats, err
	}
	return stats, os.Rename(mtmp, filepath.Join(dir, manifestName))
}

// wsMeta snapshots a writer's arity and count before Finish seals it.
func wsMeta(w *segment.Writer) (arity, count int) {
	return w.Arity(), w.Len()
}

// BulkLoadFile is BulkLoad over a facts file.
func BulkLoadFile(dir, factsPath string) (BulkStats, error) {
	f, err := os.Open(factsPath)
	if err != nil {
		return BulkStats{}, err
	}
	defer f.Close()
	return BulkLoad(dir, f)
}

package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"idlog"
	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/segment"
)

// diskCold queries a bulk-loaded disk database through a block cache far
// smaller than the data: the only workload that does not fit in memory.
// One operation is a multi-get: a few 2-hop point queries back to back,
// as a caller expanding several nodes issues them. (A single lookup
// takes 0.16 ms, and the 95th percentile of something that short is set
// by rare millisecond pauses and differs by half between identical
// runs; eight lookups per operation make it repeat.)
type diskCold struct {
	cfg        runConfig
	nodes      int
	stride     int
	ops        int
	lookups    int // point queries per operation
	scanEvery  int
	scanLimit  int
	cacheBytes int64
	dir        string
	segBytes   int64
	tuples     int64
	bulkLoad   time.Duration
	prog       *idlog.Program
	db         *idlog.Database
	keys       [][]int // per operation: the nodes looked up
	layerCounters

	// Traced pass only.
	hits, misses uint64
	seg          *segment.Segment
	rng          *rand.Rand
}

// decodedTupleBytes is the segment cache's own estimate of a decoded
// binary tuple (slice header plus two 16-byte values).
const decodedTupleBytes = 24 + 2*16

func newDiskCold(cfg runConfig) *diskCold {
	w := &diskCold{cfg: cfg, nodes: 200_000, ops: 2500, lookups: 8, scanEvery: 25, scanLimit: 50, cacheBytes: 1 << 20}
	if cfg.sizes.smoke {
		w.nodes, w.ops, w.lookups, w.scanEvery, w.cacheBytes = 12_000, 50, 2, 5, 128<<10
	}
	return w
}

func (w *diskCold) setup() error {
	rng := subRand(w.cfg.seed, "disk_cold")
	w.stride = w.nodes/8 + rng.Intn(w.nodes/8)
	w.keys = make([][]int, w.ops)
	for i := range w.keys {
		for j := 0; j < w.lookups; j++ {
			w.keys[i] = append(w.keys[i], rng.Intn(w.nodes))
		}
	}
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.outDir, "disk-"); err != nil {
		return err
	}
	var text strings.Builder
	ringFacts(&text, w.nodes, w.stride)
	start := time.Now()
	st, err := idlog.BulkLoadFacts(w.dir, strings.NewReader(text.String()))
	if err != nil {
		return err
	}
	w.bulkLoad, w.tuples = time.Since(start), st.Tuples
	segs, err := filepath.Glob(filepath.Join(w.dir, "*.seg"))
	if err != nil {
		return err
	}
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		w.segBytes += fi.Size()
	}
	// The cache budget counts decoded bytes, so the working-set rule is
	// checked in decoded bytes: the cache holds under an eighth of the
	// relation.
	if decoded := w.tuples * decodedTupleBytes; w.cacheBytes*8 >= decoded {
		return fmt.Errorf("cache of %d bytes is not under an eighth of the %d decoded bytes", w.cacheBytes, decoded)
	}
	idlog.SetDiskCacheBytes(w.cacheBytes)
	if w.db, err = idlog.OpenDiskDatabase(w.dir, 0); err != nil {
		return err
	}
	w.db.Freeze()
	w.prog, err = idlog.Parse("")
	return err
}

func (w *diskCold) isScan(i int) bool { return i%w.scanEvery == w.scanEvery-1 }

// goals returns the goal texts of operation i: one scan, or the
// operation's point lookups.
func (w *diskCold) goals(i int) []string {
	if w.isScan(i) {
		return []string{fmt.Sprintf("edge(X, Y), Y < %d", w.scanLimit)}
	}
	out := make([]string, len(w.keys[i]))
	for j, k := range w.keys[i] {
		out[j] = fmt.Sprintf("edge(%d, Y), edge(Y, Z)", k)
	}
	return out
}

func (w *diskCold) checkScan(qr *idlog.QueryResult) error {
	if len(qr.Rows) != ringScan(w.scanLimit) {
		return fmt.Errorf("scan returned %d rows, closed form %d", len(qr.Rows), ringScan(w.scanLimit))
	}
	for _, r := range qr.Rows {
		x, y := int(r[0].Num), int(r[1].Num)
		if y >= w.scanLimit || (x+1)%w.nodes != y && (x+w.stride)%w.nodes != y {
			return fmt.Errorf("scan returned edge(%d, %d), which the ring does not have below %d", x, y, w.scanLimit)
		}
	}
	return nil
}

func (w *diskCold) checkLookup(k int, qr *idlog.QueryResult) error {
	want := ringTwoHop(w.nodes, w.stride, k)
	if len(qr.Rows) != len(want) {
		return fmt.Errorf("two hops from %d: %d rows, closed form %d", k, len(qr.Rows), len(want))
	}
	for j, r := range qr.Rows { // rows come back sorted, as want is
		if int(r[0].Num) != want[j][0] || int(r[1].Num) != want[j][1] {
			return fmt.Errorf("two hops from %d: row %d is (%d, %d), closed form (%d, %d)", k, j, r[0].Num, r[1].Num, want[j][0], want[j][1])
		}
	}
	return nil
}

func (w *diskCold) streams() []*stream {
	return []*stream{{
		name: "query", clients: 1, n: w.ops, warm: w.ops / 10,
		describe: func(i int) string { return strings.Join(w.goals(i), "; ") },
		do: func(i int) (opKind, time.Duration, error) {
			kind := kindOp
			if w.isScan(i) {
				kind = kindScan
			}
			goals := w.goals(i)
			results := make([]*idlog.QueryResult, len(goals))
			var h0, m0 uint64
			if w.tracing {
				h0, m0, _ = idlog.DiskCacheStats()
			}
			start := time.Now()
			for j, g := range goals {
				qr, err := w.prog.Query(w.db, g)
				if err != nil {
					return kind, time.Since(start), err
				}
				results[j] = qr
			}
			took := time.Since(start)
			if w.tracing {
				h1, m1, _ := idlog.DiskCacheStats()
				w.hits, w.misses = w.hits+h1-h0, w.misses+m1-m0
			}
			for j, qr := range results {
				w.addStats(qr.Stats)
				var err error
				if kind == kindScan {
					err = w.checkScan(qr)
				} else {
					err = w.checkLookup(w.keys[i][j], qr)
				}
				if err != nil {
					return kind, took, err
				}
			}
			return kind, took, nil
		},
	}}
}

func (w *diskCold) rewind() error          { return nil }
func (w *diskCold) finish() (int, []error) { return 0, nil }

func (w *diskCold) close() {
	if w.seg != nil {
		w.seg.Close()
	}
	w.db = nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

func (w *diskCold) beginTrace() error {
	w.startCounters()
	segs, err := filepath.Glob(filepath.Join(w.dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("no segment file in %s: %v", w.dir, err)
	}
	// A second handle on the segment with a cache of its own, so the
	// segment measurements leave the database's hit ratio alone.
	w.seg, err = segment.Open(segs[0], segment.NewCache(w.cacheBytes))
	w.rng = subRand(w.cfg.seed, "disk_cold/at")
	return err
}

func (w *diskCold) replay(t *tracer, _ *stream, i int) error {
	for _, g := range w.goals(i) {
		if err := w.replayGoal(t, g); err != nil {
			return err
		}
	}
	return nil
}

func (w *diskCold) replayGoal(t *tracer, goal string) error {
	ans, err := replayGoalParse(t, &w.layerCounters, goal)
	if err != nil {
		return err
	}
	var info *analysis.Info
	t.in("analysis.analyze", func() { info, err = analysis.Analyze(&ast.Program{Clauses: []*ast.Clause{ans}}) })
	if err != nil {
		return err
	}
	// The evaluation reads the disk-backed relation, so the segment
	// layer's block decodes happen inside this span; segment.at below
	// prices one of them.
	if _, err := replayEval(t, info, w.db, core.Options{}, false); err != nil {
		return err
	}
	pos := w.rng.Intn(w.seg.Len())
	t.in("diag.segment_at", func() { _ = w.seg.At(pos) })
	return nil
}

func (w *diskCold) layerMetrics(t *tracer) (map[string]float64, error) {
	start := time.Now()
	n := 0
	w.seg.Scan(0, -1, func(int, idlog.Tuple) bool { n++; return true })
	scan := time.Since(start)
	return map[string]float64{
		"segment_cache_hit_ratio":    ratio(float64(w.hits), float64(w.hits+w.misses)),
		"segment_at_us":              t.medianSpanMS("diag.segment_at") * 1000,
		"segment_scan_mtuples_per_s": float64(n) / 1e6 / scan.Seconds(),
		"storage_bulkload_s":         w.bulkLoad.Seconds(),
		"storage_bytes_per_tuple":    ratio(float64(w.segBytes), float64(w.tuples)),
	}, nil
}

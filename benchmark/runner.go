package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opKind says which latency series an operation belongs to.
type opKind int

const (
	kindOp   opKind = iota // the workload's headline operation
	kindRead               // a reader's query beside a writer (serve_mixed)
	kindScan               // a full-relation scan between point probes (disk_cold)
	numKinds
)

// stream is one closed-loop client population working through one fixed,
// seed-determined operation sequence: each client takes the next index,
// runs that operation, waits for its answer, checks it, and only then
// takes another. Index i ≥ n wraps to i mod n.
type stream struct {
	name    string
	clients int
	n       int
	warm    int // operations of the untimed warm-up pass that ends set-up
	// describe renders operation i; the rendered sequence is hashed so
	// two runs can prove they executed the same operations.
	describe func(i int) string
	// do runs operation i through the public surface and returns the
	// time the surface call took (checking excluded) and nil when the
	// answer matched the reference. Safe for concurrent use.
	do func(i int) (opKind, time.Duration, error)
}

// workload is one of the six benchmark workloads.
type workload interface {
	// setup generates the inputs, loads them and starts whatever the
	// operations talk to. Warm-up is the runner's job.
	setup() error
	streams() []*stream
	// rewind brings the system back to the state setup left it in, so
	// every repetition starts equal. Read-only workloads do nothing.
	rewind() error
	// finish runs the end-of-run checks (model comparison, durability)
	// and returns how many it ran and the ones that failed.
	finish() (checks int, failures []error)
	close()
	// beginTrace prepares the traced pass: counter snapshots, shadow
	// state for the layer replay.
	beginTrace() error
	// replay repeats operation i of stream s layer by layer, calling the
	// layers' public functions from outside inside spans of t.
	replay(t *tracer, s *stream, i int) error
	// layerMetrics returns the layer metrics that come from counters
	// and not from spans; nil when there are none.
	layerMetrics(t *tracer) (map[string]float64, error)
	counters() *layerCounters
	// peakRSSKB is the peak resident set of the process the workload
	// measures, in KiB.
	peakRSSKB() (int64, error)
}

// sizes scales a run. Full sizes are the published benchmark; smoke
// sizes run every code path in a few hundred milliseconds for the test.
type sizes struct {
	smoke   bool
	setups  int // set-ups per run; setup_s is their median
	reps    int // timed repetitions per run
	repOps  int // operations per stream and repetition; 0 = run for repSecs
	repSecs float64
}

type runConfig struct {
	workload string
	seed     int64
	sizes    sizes
	outDir   string    // scratch and trace files
	benchDir string    // the benchmark module's directory (for go build)
	log      io.Writer // progress notes
}

// repResult is what one timed repetition measured.
type repResult struct {
	lat  [numKinds][]time.Duration // correct operations only
	wall time.Duration
}

// runResult is one workload run, reduced to metrics.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // first few, for diagnosis
	SeqHash   string             `json:"sequence_hash"`
	Ops       map[string]int     `json:"ops_per_sequence"`
	Clients   map[string]int     `json:"clients"`
	Metrics   map[string]float64 `json:"metrics"`
	// RepSpread is (max−min)/median over the repetitions (for setup_s,
	// over the set-ups); Samples the per-repetition sample count.
	RepSpread map[string]float64 `json:"rep_spread,omitempty"`
	Samples   map[string]int     `json:"samples,omitempty"`
	// Reps holds each metric's value in every repetition, in order.
	Reps map[string][]float64 `json:"reps,omitempty"`
}

func newRunResult(cfg runConfig) *runResult {
	return &runResult{Workload: cfg.workload, Seed: cfg.seed,
		Ops: map[string]int{}, Clients: map[string]int{}, Metrics: map[string]float64{},
		RepSpread: map[string]float64{}, Samples: map[string]int{}, Reps: map[string][]float64{}}
}

const maxFailureNotes = 5

func (r *runResult) fail(err error) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, err.Error())
	}
}

// sequenceHash hashes every stream's rendered operation sequence.
func sequenceHash(ss []*stream) string {
	h := sha256.New()
	for _, s := range ss {
		fmt.Fprintf(h, "stream %s %d\n", s.name, s.n)
		for i := 0; i < s.n; i++ {
			io.WriteString(h, s.describe(i))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPass drives every stream's clients until each stream has run ops
// operations (ops > 0) or the duration has passed (ops == 0).
func runPass(ss []*stream, ops int, d time.Duration, res *runResult) repResult {
	var rep repResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, s := range ss {
		var next atomic.Int64
		for c := 0; c < s.clients; c++ {
			wg.Add(1)
			go func(s *stream) {
				defer wg.Done()
				var lat [numKinds][]time.Duration
				var failures []error
				for {
					i := int(next.Add(1) - 1)
					if ops > 0 && i >= ops || ops == 0 && !time.Now().Before(deadline) {
						break
					}
					kind, took, err := s.do(i % s.n)
					if err != nil {
						failures = append(failures, fmt.Errorf("%s op %d: %w", s.name, i%s.n, err))
						continue
					}
					lat[kind] = append(lat[kind], took)
				}
				mu.Lock()
				defer mu.Unlock()
				for k := range lat {
					rep.lat[k] = append(rep.lat[k], lat[k]...)
					res.Attempted += len(lat[k])
				}
				res.Attempted += len(failures)
				for _, err := range failures {
					res.fail(err)
				}
			}(s)
		}
	}
	wg.Wait()
	rep.wall = time.Since(start)
	return rep
}

// setUp builds the workload and brings it to the state the measured
// passes start from: inputs generated and loaded, servers started, the
// warm-up pass run, the state rewound. Warm-up belongs to set-up: caches
// filled and lazy indexes built are part of what a user waits for before
// the first fast answer. The caller closes the workload.
func setUp(cfg runConfig, res *runResult) (workload, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if err := w.setup(); err != nil {
		w.close()
		return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	for _, s := range w.streams() {
		runPass([]*stream{s}, s.warm, 0, res)
	}
	if err := w.rewind(); err != nil {
		w.close()
		return nil, fmt.Errorf("%s: rewind after warm-up: %w", cfg.workload, err)
	}
	return w, nil
}

// runWorkload is a whole untraced run: set-up (several times, keeping
// the last), the timed repetitions, the end-of-run checks.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := newRunResult(cfg)
	var w workload
	var setups []float64
	for i := 0; i < cfg.sizes.setups; i++ {
		if w != nil {
			// Collect the discarded set-up before building the next, so
			// that peak RSS is one set-up plus the run, not two set-ups
			// overlapping by however much the collector was behind.
			w.close()
			w = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if w, err = setUp(cfg, res); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	ss := w.streams()
	clients := 0
	for _, s := range ss {
		clients += s.clients
		res.Ops[s.name], res.Clients[s.name] = s.n, s.clients
	}
	if clients > runtime.NumCPU() {
		fmt.Fprintf(cfg.log, "warning: %d clients on %d CPUs: the load generator competes with the system under test\n", clients, runtime.NumCPU())
	}
	res.SeqHash = sequenceHash(ss)

	reps := make([]repResult, cfg.sizes.reps)
	for r := range reps {
		runtime.GC()
		reps[r] = runPass(ss, cfg.sizes.repOps, time.Duration(cfg.sizes.repSecs*float64(time.Second)), res)
		if err := w.rewind(); err != nil {
			return nil, fmt.Errorf("%s: rewind after repetition %d: %w", cfg.workload, r+1, err)
		}
		fmt.Fprintf(cfg.log, "%s rep %d: %d ops in %.2fs\n", cfg.workload, r+1, len(reps[r].lat[kindOp]), reps[r].wall.Seconds())
	}

	checks, failures := w.finish()
	res.Attempted += checks
	for _, err := range failures {
		res.fail(err)
	}

	// Reduce: each metric is the median over the repetitions.
	set := func(name string, vs []float64, samples int) {
		res.Metrics[name], res.RepSpread[name], res.Samples[name] = median(vs), spread(vs), samples
		res.Reps[name] = vs
	}
	series := func(kind opKind, p float64) ([]float64, int) {
		vs := make([]float64, len(reps))
		n := 0
		for r, rep := range reps {
			vs[r] = ms(percentile(rep.lat[kind], p))
			if r == 0 || len(rep.lat[kind]) < n {
				n = len(rep.lat[kind])
			}
		}
		return vs, n
	}
	set("setup_s", setups, len(setups))
	opP50, opN := series(kindOp, 0.50)
	opP95, _ := series(kindOp, 0.95)
	set("op_ms_p50", opP50, opN)
	set("op_ms_p95", opP95, opN)
	rate := make([]float64, len(reps))
	for r, rep := range reps {
		rate[r] = float64(len(rep.lat[kindOp])) / rep.wall.Seconds()
	}
	set("ops_per_s", rate, opN)
	// A workload without a separate reader or scan stream has only
	// reads as operations: the series repeat the operation series, so
	// that every workload reports the same metric set.
	readP50, readP95, readN := opP50, opP95, opN
	if vs, n := series(kindRead, 0.50); n > 0 {
		readP50, readN = vs, n
		readP95, _ = series(kindRead, 0.95)
	}
	set("read_ms_p50", readP50, readN)
	set("read_ms_p95", readP95, readN)
	scanP50, scanN := opP50, opN
	if vs, n := series(kindScan, 0.50); n > 0 {
		scanP50, scanN = vs, n
	}
	set("scan_ms_p50", scanP50, scanN)

	rss, err := w.peakRSSKB()
	if err != nil {
		return nil, err
	}
	res.Metrics["peak_rss_mb"] = float64(rss) / 1024

	if opN == 0 {
		return res, errors.New(cfg.workload + ": a repetition completed no operation")
	}
	return res, nil
}

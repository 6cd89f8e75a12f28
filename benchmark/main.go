// Command benchmark is the fixed performance benchmark of idlog and
// idlogd: six workloads, each driven only through a public surface (the
// built idlog binary, idlogd's HTTP handler behind a loopback listener,
// Program.Eval/Query), every input generated from -seed, every answer
// checked against a reference that shares no code with the engine.
//
//	benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is
//	    {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
//	    --trace 0 reports the end-to-end metrics, --trace 1 runs the
//	    traced pass and reports the per-layer metrics.
//	benchmark/run.sh --seed N [--smoke] [--out file]
//	    all six workloads, untraced then traced, each in a process of its
//	    own; prints every metric and writes them to one JSON file.
//	benchmark/run.sh --compare a.json b.json
//	    applies each end-to-end metric's bound per workload.
//
// See README.md for the metrics, the workloads and how they interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is how long one run measures; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 12

func main() {
	workloadFlag := flag.String("workload", "", "run this one workload and print the result line (default: all six, each in its own process)")
	seed := flag.Int64("seed", 1, "seed of every generated input; the only source of randomness")
	seconds := flag.Float64("seconds", defaultSeconds, "seconds one run measures, split over the repetitions")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny sizes and fixed operation counts: every code path in under a second per workload")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	dir := flag.String("dir", envOr("IDLOG_BENCH_DIR", "."), "the benchmark's own directory (scratch and results go to its out/)")
	out := flag.String("out", "", "result file of an all-workloads run (default out/result-seed<N>.json)")
	detail := flag.String("detail", "", "also write the run's full result (spreads, sample counts) to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err.Error())
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	benchDir, err := filepath.Abs(*dir)
	if err != nil {
		fatal(2, err.Error())
	}
	outDir := filepath.Join(benchDir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(2, err.Error())
	}
	cfg := runConfig{workload: *workloadFlag, seed: *seed, sizes: sizesFor(*smoke, *seconds),
		outDir: outDir, benchDir: benchDir, log: os.Stderr}

	if *workloadFlag == "" {
		if *out == "" {
			*out = filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", *seed))
		}
		if err := runAll(cfg, *seconds, *out); err != nil {
			fatal(1, err.Error())
		}
		return
	}

	var res *runResult
	if *trace == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runWorkload(cfg)
	}
	if err != nil {
		fatal(1, err.Error())
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "failed:", f)
	}
	if *detail != "" {
		if err := writeJSON(*detail, res); err != nil {
			fatal(1, err.Error())
		}
	}
	line, err := resultLine(res, defs)
	if err != nil {
		fatal(1, err.Error())
	}
	fmt.Println(line)
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func envOr(name, fallback string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return fallback
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}

// sizesFor returns the full sizes (timed repetitions sharing seconds) or
// the smoke sizes (a handful of operations per repetition).
func sizesFor(smoke bool, seconds float64) sizes {
	if smoke {
		return sizes{smoke: true, setups: 1, reps: 3, repOps: 12}
	}
	return sizes{setups: 3, reps: 3, repSecs: seconds / 3}
}

// resultLine renders the one-line result the pipeline reads: exactly the
// catalogue's metrics, each with its value as measured and its unit.
func resultLine(res *runResult, defs []metricDef) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		metrics[d.Name] = mv{v, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	return string(b), err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// header records where and on what a result file was measured.
type header struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OS         string  `json:"os"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"git_commit"`
	Time       string  `json:"time"`
}

// resultFile is what an all-workloads run writes and -compare reads.
type resultFile struct {
	Header    header                `json:"header"`
	Workloads map[string]*runResult `json:"workloads"` // untraced runs: end-to-end metrics
	Traced    map[string]*runResult `json:"traced"`    // traced runs: per-layer metrics
}

func newHeader(cfg runConfig, seconds float64) header {
	h := header{Seed: cfg.seed, Seconds: seconds, Smoke: cfg.sizes.smoke,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS + "/" + runtime.GOARCH, Kernel: "unknown", Commit: "unknown",
		Time: time.Now().UTC().Format(time.RFC3339)}
	var un syscall.Utsname
	if err := syscall.Uname(&un); err == nil {
		var b []byte
		for _, c := range un.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = cfg.benchDir
	if b, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// runAll runs every workload untraced and then traced, each run in a
// fresh process of this same binary so that heap, GC state and peak RSS
// never leak from one workload into the next.
func runAll(cfg runConfig, seconds float64, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultFile{Header: newHeader(cfg, seconds), Workloads: map[string]*runResult{}, Traced: map[string]*runResult{}}
	h := rf.Header
	fmt.Printf("idlog benchmark: seed %d, %gs per run, nproc %d, GOMAXPROCS %d, %s, %s kernel %s, commit %s\n",
		h.Seed, h.Seconds, h.NProc, h.GOMAXPROCS, h.GoVersion, h.OS, h.Kernel, h.Commit)
	failed := 0
	for _, wd := range workloadDefs {
		for trace, into := range []map[string]*runResult{rf.Workloads, rf.Traced} {
			detail := filepath.Join(cfg.outDir, fmt.Sprintf("detail-%s-trace%d.json", wd.Name, trace))
			args := []string{"-workload", wd.Name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-dir", cfg.benchDir, "-detail", detail}
			if cfg.sizes.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
			runErr := cmd.Run()
			var res runResult
			b, err := os.ReadFile(detail)
			if err == nil {
				err = json.Unmarshal(b, &res)
			}
			if err != nil {
				return fmt.Errorf("%s (trace %d): %v (run: %v)", wd.Name, trace, err, runErr)
			}
			os.Remove(detail)
			into[wd.Name] = &res
			failed += res.Failed
			printRun(os.Stdout, &res, trace == 1)
		}
	}
	if err := writeJSON(outPath, rf); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", outPath)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// printRun prints one run's metrics by name, each with its unit and,
// where it has them, the repetition spread and per-repetition sample
// count.
func printRun(w io.Writer, res *runResult, traced bool) {
	defs, title := endToEnd, "end to end"
	if traced {
		defs, title = perLayer, "per layer (traced pass)"
	}
	var streams []string
	for name := range res.Ops {
		streams = append(streams, name)
	}
	sort.Strings(streams)
	for i, name := range streams {
		streams[i] = fmt.Sprintf("%s: %d ops × %d client(s)", name, res.Ops[name], res.Clients[name])
	}
	fmt.Fprintf(w, "\n%s — %s — %s — attempted %d, failed %d (failed_ratio %g)\n",
		res.Workload, title, strings.Join(streams, ", "), res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, d := range defs {
		format := "  %-30s %14.4f %-10s"
		if d.Unit == "count" {
			format = "  %-30s %14.0f %-10s"
		}
		line := fmt.Sprintf(format, d.Name, res.Metrics[d.Name], d.Unit)
		if n, ok := res.Samples[d.Name]; ok {
			line += fmt.Sprintf(" rep_spread %.3f  n=%d", res.RepSpread[d.Name], n)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

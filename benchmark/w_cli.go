package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"idlog"
	"idlog/internal/analysis"
	"idlog/internal/ast"
	"idlog/internal/core"
	"idlog/internal/parser"
)

// cliBatch runs the built idlog binary once per operation over a fact
// file and a single-source reachability program: start-to-exit wall
// clock is what a CLI user pays.
type cliBatch struct {
	cfg                runConfig
	nodes, core, extra int
	sources            int // distinct program files (reachability sources)
	ops                int
	bin                string
	dir                string
	factsPath          string
	factsText          string
	progPaths          []string
	progTexts          []string
	want               []int // per program: reference reachable count
	mu                 sync.Mutex
	maxRSSKB           int64
	layerCounters
}

func newCLIBatch(cfg runConfig) *cliBatch {
	w := &cliBatch{cfg: cfg, nodes: 5000, core: 4000, extra: 16000, sources: 8, ops: 256}
	if cfg.sizes.smoke {
		w.nodes, w.core, w.extra, w.sources, w.ops = 60, 40, 100, 2, 6
	}
	return w
}

// buildIdlog builds cmd/idlog into the out directory. The go command's
// own cache makes every build after the first a staleness check; run.sh
// points that cache (GOCACHE) into out/ as well.
func buildIdlog(cfg runConfig) (string, error) {
	bin := filepath.Join(cfg.outDir, "idlog")
	cmd := exec.Command("go", "build", "-o", bin, "idlog/cmd/idlog")
	cmd.Dir = cfg.benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build idlog/cmd/idlog: %v\n%s", err, out)
	}
	return bin, nil
}

func (w *cliBatch) setup() error {
	rng := subRand(w.cfg.seed, "cli_batch")
	var err error
	if w.bin, err = buildIdlog(w.cfg); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(w.cfg.outDir, "cli-"); err != nil {
		return err
	}
	name := func(v int) string { return fmt.Sprintf("n%d", v) }
	srng := structRand("cli_batch")
	label := rng.Perm(w.nodes)
	es := relabel(rng, reachGraph(srng, w.nodes, w.core, w.extra), label)
	w.factsText = factsText("edge", es, name)
	w.factsPath = filepath.Join(w.dir, "g.facts")
	if err := os.WriteFile(w.factsPath, []byte(w.factsText), 0o644); err != nil {
		return err
	}
	adj := adjacency(w.nodes, es)
	for k := 0; k < w.sources; k++ {
		src := label[srng.Intn(w.core)]
		text := fmt.Sprintf("reach(Y) :- edge(%s, Y).\nreach(Y) :- reach(X), edge(X, Y).\n", name(src))
		path := filepath.Join(w.dir, fmt.Sprintf("reach%d.idl", k))
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
		w.progPaths, w.progTexts = append(w.progPaths, path), append(w.progTexts, text)
		w.want = append(w.want, countTrue(reachable(adj, src)))
	}
	return nil
}

func (w *cliBatch) streams() []*stream {
	return []*stream{{
		name: "exec", clients: 1, n: w.ops, warm: w.sources,
		describe: func(i int) string {
			k := i % w.sources
			return fmt.Sprintf("idlog -facts g.facts(%d bytes) -query reach -stats %q", len(w.factsText), w.progTexts[k])
		},
		do: func(i int) (opKind, time.Duration, error) {
			k := i % w.sources
			cmd := exec.Command(w.bin, "-facts", w.factsPath, "-query", "reach", "-stats", w.progPaths[k])
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			start := time.Now()
			err := cmd.Run()
			took := time.Since(start)
			if err != nil {
				return kindOp, took, fmt.Errorf("idlog: %v: %s", err, stderr.String())
			}
			if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
				w.mu.Lock()
				if ru.Maxrss > w.maxRSSKB {
					w.maxRSSKB = ru.Maxrss
				}
				w.mu.Unlock()
			}
			out := stdout.String()
			if lines := strings.Count(out, "\n"); lines != 1 {
				return kindOp, took, fmt.Errorf("idlog printed %d lines, want 1", lines)
			}
			if got := strings.Count(out, "("); got != w.want[k] || !strings.HasPrefix(out, "reach{") {
				return kindOp, took, fmt.Errorf("reach has %d tuples, reference search %d", got, w.want[k])
			}
			return kindOp, took, nil
		},
	}}
}

// peakRSSKB is the largest resident set any idlog process reached: the
// process a CLI user runs is the child, not the driver.
func (w *cliBatch) peakRSSKB() (int64, error) { return w.maxRSSKB, nil }

func (w *cliBatch) rewind() error          { return nil }
func (w *cliBatch) finish() (int, []error) { return 0, nil }
func (w *cliBatch) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// replay does in-process what one idlog run does: parse the fact text,
// load it, parse and analyse the program, evaluate, render.
func (w *cliBatch) replay(t *tracer, _ *stream, i int) error {
	k := i % w.sources
	var facts []idlog.Fact
	var err error
	t.in("parser.parse_facts", func() { facts, err = idlog.ParseFacts(w.factsText) })
	if err != nil {
		return err
	}
	db := idlog.NewDatabase()
	t.in("relation.load", func() {
		for _, f := range facts {
			if err = db.Add(f.Pred, f.Tuple); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var prog *ast.Program
	t.in("parser.program", func() { prog, err = parser.Program(w.progTexts[k]) })
	if err != nil {
		return err
	}
	w.parsedBytes += len(w.factsText) + len(w.progTexts[k])
	var info *analysis.Info
	t.in("analysis.analyze", func() { info, err = analysis.Analyze(prog) })
	if err != nil {
		return err
	}
	res, err := replayEval(t, info, db, core.Options{}, true)
	if err != nil {
		return err
	}
	w.addStats(res.Stats)
	t.in("relation.render", func() { _ = res.Relation("reach").String() })
	return nil
}

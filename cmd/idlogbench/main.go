// Command idlogbench regenerates the experiment tables of
// EXPERIMENTS.md: one table per claim of the paper (E1–E8).
//
// Usage:
//
//	idlogbench [-suite quick|full] [-only E3]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"idlog/internal/bench"
	"idlog/internal/bench/serverbench"
)

func main() {
	suiteName := flag.String("suite", "quick", "experiment sizing: quick or full")
	only := flag.String("only", "all", "run a single experiment (E1..E18) or all")
	markdown := flag.Bool("md", false, "emit GitHub-flavoured markdown tables")
	jsonOut := flag.Bool("json", false, "also write the tables to BENCH_<suite>.json (BENCH_<experiment>.json with -only)")
	flag.Parse()

	var suite bench.Suite
	switch *suiteName {
	case "quick":
		suite = bench.Quick()
	case "full":
		suite = bench.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown suite %q (want quick or full)\n", *suiteName)
		os.Exit(2)
	}

	start := time.Now()
	tables := bench.Run(suite, *only)
	if *only == "" || *only == "all" || *only == "E12" {
		s := time.Now()
		tbl := serverbench.E12(suite.E12Clients, suite.E12Requests, suite.E12Emp[0], suite.E12Emp[1])
		tbl.ElapsedNS = time.Since(s).Nanoseconds()
		tables = append(tables, tbl)
	}
	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *only)
		os.Exit(2)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *markdown {
			fmt.Print(t.RenderMarkdown())
		} else {
			fmt.Print(t.Render())
		}
	}
	if *jsonOut {
		tag := *suiteName
		if *only != "" && *only != "all" {
			tag = strings.ToLower(*only)
		}
		path := fmt.Sprintf("BENCH_%s.json", tag)
		if err := bench.NewReport(*suiteName, tables).WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	fmt.Printf("\ntotal: %d experiments in %s\n", len(tables), time.Since(start).Round(time.Millisecond))
}

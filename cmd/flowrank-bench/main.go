// Command flowrank-bench regenerates the tables and figures of "Ranking
// flows from sampled traffic" (Barakat, Iannaccone, Diot, CoNEXT 2005),
// printing each as an aligned text table and optionally saving CSVs. It
// is the paper-figure generator; the repo's benchmark is bench/.
//
// Usage:
//
//	flowrank-bench -fig all                 # everything, reduced scale
//	flowrank-bench -fig fig04               # one figure
//	flowrank-bench -fig fig12 -full         # paper scale (30 min, 30 runs)
//	flowrank-bench -fig all -out results/   # also write results/<id>.csv
//	flowrank-bench -list                    # show available experiments
//
// Figure ids follow the paper (fig01 … fig16); the extras (kernels,
// fastpath, sketch, seqest, adaptive, invert, coord, dynamic) are the
// ablations and future-work extensions; -list gives each one's title and
// README's sections describe the extensions.
//
// The process exits non-zero when any experiment, table rendering or CSV
// save fails, so CI jobs invoking it actually gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"flowrank/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowrank-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "all", "experiment id (figNN, extras, or 'all')")
		full    = fs.Bool("full", false, "paper-scale evaluation (slower)")
		out     = fs.String("out", "", "directory for CSV output (empty = none)")
		seed    = fs.Uint64("seed", 0, "experiment seed (0 = default)")
		workers = fs.Int("workers", 0, "model and simulation workers (0 = GOMAXPROCS)")
		list    = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-10s %s\n", id, experiments.Title(id))
		}
		return 0
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.IDs()
	}
	opts := experiments.Options{Full: *full, Seed: *seed, Workers: *workers}

	failed := 0
	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, opts)
		elapsed := time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "flowrank-bench: %s: %v\n", id, err)
			failed++
			continue
		}
		for _, t := range tables {
			if err := t.Fprint(stdout); err != nil {
				fmt.Fprintf(stderr, "flowrank-bench: printing %s: %v\n", t.ID, err)
				failed++
			}
			if *out != "" {
				path, err := t.SaveCSV(*out)
				if err != nil {
					fmt.Fprintf(stderr, "flowrank-bench: %v\n", err)
					failed++
				} else {
					fmt.Fprintf(stdout, "wrote %s\n\n", path)
				}
			}
		}
		fmt.Fprintf(stdout, "[%s done in %s]\n\n", id, elapsed.Round(time.Millisecond))
	}

	if failed > 0 {
		fmt.Fprintf(stderr, "flowrank-bench: %d failures\n", failed)
		return 1
	}
	if *fig == "all" && !*full {
		fmt.Fprintln(stdout, strings.Repeat("-", 72))
		fmt.Fprintln(stdout, "reduced scale: rerun with -full for the paper's trace lengths and runs")
	}
	return 0
}

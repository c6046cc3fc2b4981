// Command flowrankbench is the repository's benchmark. It drives the real
// binaries (tracegen, flowtop, flowrankd, journalcheck) as subprocesses
// over four named workloads, checks every output against a reference, and
// prints the end-to-end metrics (measured only from outside the process)
// or, in a separate traced run, the per-layer metrics. BENCHMARK.json at
// the repository root names every metric, unit and regression bound; see
// README.md here for the workloads and how the metrics interact.
//
// Usage:
//
//	bash bench/run.sh --workload batch-exact --seed 1 --seconds 10 --trace 0
//	cd bench && go run . -seed 1                    # every workload, both modes, one JSON document
//	cd bench && go run . -compare a.json b.json     # two such documents against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// report is the document a full run prints and -compare reads.
type report struct {
	Provenance provenance                `json:"provenance"`
	Workloads  map[string]workloadReport `json:"workloads"`
}

type workloadReport struct {
	Why      string   `json:"why"`
	EndToEnd *outcome `json:"end_to_end,omitempty"`
	PerLayer *outcome `json:"per_layer,omitempty"`
}

// provenance says where and how the numbers were taken.
type provenance struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	Started    string  `json:"started"`
	Load       string  `json:"load"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Uint64("seed", 1, "workload seed: tracegen -seed for every trace")
		seconds      = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		traceMode    = flag.Int("trace", -1, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run; -1: both")
		compareMode  = flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		return fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	if *compareMode {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 {
		return fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return fatal(err)
		}
		selected = []workload{w}
	}
	if *traceMode < -1 || *traceMode > 1 {
		return fatal(fmt.Errorf("-trace %d: want 0, 1 or -1", *traceMode))
	}

	// SIGINT/SIGTERM cancel the context: every child is started under it
	// and dies with it, and the deferred clean-up below still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every operation has its own limit; this one bounds their sum. Only a
	// first build in a fresh checkout takes more than a small part of it.
	ctx, cancel := context.WithTimeout(ctx, 850*time.Second)
	defer cancel()

	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return fatal(err)
	}
	tmp, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(tmp)
	e := &env{root: root, bin: filepath.Join(build, "bin"), tmp: tmp, seed: *seed, size: benchSizing}

	started := time.Now().UTC()
	rep := report{
		Provenance: provenance{
			Commit: commit(root), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, RunSeconds: *seconds,
			Started: started.Format(time.RFC3339),
			Load: "closed loop for flowtop (one invocation at a time); programs read trace files as fast as they can; " +
				"the harness is one process and the only client",
		},
		Workloads: map[string]workloadReport{},
	}
	outDir := filepath.Join(root, "bench", "out", started.Format("20060102T150405Z")+fmt.Sprintf("-seed%d", *seed))
	why := map[string]string{}
	for _, ws := range spec.Workloads {
		why[ws.Name] = ws.Why
	}
	var last *outcome
	failed := false
	for _, w := range selected {
		wr := workloadReport{Why: why[w.name]}
		if *traceMode != 1 {
			if wr.EndToEnd, err = e.runEndToEnd(ctx, spec, w, *seconds); err != nil {
				return fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			last = wr.EndToEnd
		}
		if *traceMode != 0 {
			if wr.PerLayer, err = e.runPerLayer(ctx, spec, w, *seconds, outDir); err != nil {
				return fatal(fmt.Errorf("%s (traced): %w", w.name, err))
			}
			last = wr.PerLayer
		}
		for _, o := range []*outcome{wr.EndToEnd, wr.PerLayer} {
			if o != nil && !o.Result.Correct {
				failed = true
				for _, f := range o.Failures {
					fmt.Fprintf(os.Stderr, "flowrankbench: %s: FAILED: %s\n", w.name, f)
				}
			}
		}
		rep.Workloads[w.name] = wr
	}

	doc, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(doc))
	// One workload in one mode is the driver's call: its contract wants the
	// result object alone on the last line.
	if len(selected) == 1 && *traceMode >= 0 {
		line, err := json.Marshal(last.Result)
		if err != nil {
			return fatal(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "flowrankbench:", err)
	return 1
}

// commit names the measured source, with "+dirty" when the work tree
// differs from it. The driver's checkout is not a git repository, so
// "unknown" is a normal answer there.
func commit(root string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	head, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown"
	}
	if changes, err := git("status", "--porcelain"); err != nil || changes != "" {
		head += "+dirty"
	}
	return head
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// smokeSizing runs everything once, on traces a tenth as long.
var smokeSizing = sizing{traceScale: 0.1, setUps: 1, minTimed: 1, daemonWarmUp: 150 * time.Millisecond}

// TestSmoke runs all four workloads, untraced and traced, against the real
// binaries on traces a tenth of the benchmark's size, and checks the
// output schema: the metric names of every run are exactly those of
// BENCHMARK.json with its units, no operation fails, every trace file
// parses, and between them the workloads measure every listed metric (none
// is only ever printed as its 0 default). The workloads run side by side
// because timings do not matter here; a warm build cache keeps the whole
// test under 30 s.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	spec, root := loadSpecForTest(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	outDir := t.TempDir()
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Build once up front: the parallel set-ups below then only check
	// that the binaries are current.
	if err := (&env{root: root, bin: filepath.Join(build, "bin")}).build(ctx); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	measured := map[string]bool{}
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.name, func(t *testing.T) {
				t.Parallel()
				tmp, err := os.MkdirTemp(filepath.Join(build, "tmp"), "smoke-")
				if err != nil {
					t.Fatal(err)
				}
				defer os.RemoveAll(tmp)
				e := &env{root: root, bin: filepath.Join(build, "bin"), tmp: tmp, seed: 7, size: smokeSizing}

				e2e, err := e.runEndToEnd(ctx, spec, w, 1)
				if err != nil {
					t.Fatal(err)
				}
				checkOutcome(t, e2e, spec.EndToEnd)
				for name, v := range e2e.Result.Metrics {
					if !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want a positive number", name, v.Value)
					}
				}
				for name, v := range e2e.Gated {
					if bound := compareBounds[name][w.name]; !(bound > 0) || !(v.Value > 0) {
						t.Errorf("gated metric %s = %v with -compare bound %v, want both positive", name, v.Value, bound)
					}
				}
				layer, err := e.runPerLayer(ctx, spec, w, 1, outDir)
				if err != nil {
					t.Fatal(err)
				}
				checkOutcome(t, layer, spec.PerLayer)
				checkTraceFile(t, filepath.Join(root, layer.TraceFile), w.name)

				mu.Lock()
				defer mu.Unlock()
				for _, o := range []*outcome{e2e, layer} {
					for name := range o.measured {
						measured[name] = true
					}
				}
			})
		}
	})
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if !measured[m.Name] {
				t.Errorf("BENCHMARK.json lists %s but no workload measures it", m.Name)
			}
		}
	}
}

// checkOutcome validates one run's result object the way the driver reads
// it: after a JSON round trip, with exactly the four contract keys.
func checkOutcome(t *testing.T, o *outcome, list []metricSpec) {
	t.Helper()
	line, err := json.Marshal(o.Result)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("result keys = %s", line)
	}
	var r result
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", r.Correct, r.Attempted, r.Failed, o.Failures)
	}
	if len(r.Metrics) != len(list) {
		t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(r.Metrics), len(list))
	}
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s is listed in BENCHMARK.json but not printed", m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		}
	}
}

func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != workload || len(doc.Spans) == 0 {
		t.Fatalf("trace file of %q holds %d spans for %q", workload, len(doc.Spans), doc.Workload)
	}
	origins := map[string]int{}
	for i, s := range doc.Spans {
		origins[s.Origin]++
		if s.ID != i+1 || s.Parent < 0 || s.Parent >= s.ID || s.Name == "" || s.Layer == "" ||
			s.Workload != workload || s.EndNS < s.StartNS || s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
			t.Fatalf("span %d is malformed: %+v", i+1, s)
		}
		if s.Origin == "program" && (s.Parent == 0 || s.Invocation == 0 || s.Bin < 0) {
			t.Fatalf("journal span %d does not hang under an invocation: %+v", s.ID, s)
		}
	}
	if origins["harness"] == 0 || origins["program"] == 0 || len(origins) != 2 {
		t.Errorf("span origins = %v, want both harness and program", origins)
	}
}

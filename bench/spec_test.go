package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func loadSpecForTest(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec, root
}

func TestNameCharset(t *testing.T) {
	for _, ok := range []string{"pkts_per_s", "flowtable.exact.ingest_ns_per_pkt", "batch-exact", "9lives", strings.Repeat("a", 64)} {
		if !nameRE.MatchString(ok) {
			t.Errorf("name %q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "µs", "a:b", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	s := benchSpec{EndToEnd: []metricSpec{{Name: "a", Unit: "s", Better: "lower"}}, PerLayer: []metricSpec{{Name: "a", Unit: "s", Better: "lower"}}}
	if err := s.validate(); err == nil {
		t.Error("a name used twice validated")
	}
}

// BENCHMARK.json against the limits the benchmark driver refuses a file
// for, and against the harness's own workload table.
func TestBenchmarkJSON(t *testing.T) {
	spec, root := loadSpecForTest(t)
	if n := len(spec.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", n, len(workloads))
	}
	for i, ws := range spec.Workloads {
		if ws.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, ws.Name, workloads[i].name)
		}
		if ws.Why == "" || len(ws.Why) > 200 || strings.Contains(ws.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", ws.Name, len(ws.Why))
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	if len(spec.EndToEnd) < 1 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(spec.EndToEnd), len(spec.PerLayer))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	for _, arg := range spec.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
	if _, err := os.Stat(filepath.Join(root, spec.Command[len(spec.Command)-1])); err != nil {
		t.Errorf("command names %q: %v", spec.Command[len(spec.Command)-1], err)
	}
}

// The harness may use the root flowrank facade and the programs' CLI and
// wire surfaces, nothing else: later refactors may reshape internal/
// freely without touching the benchmark.
func TestNoInternalImports(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found: %v", err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "flowrank/") {
				t.Errorf("%s imports %s; only the root package flowrank is allowed", f, path)
			}
		}
	}
	sub, _ := filepath.Glob("*/*.go")
	if len(sub) != 0 {
		t.Errorf("Go files in subdirectories are not covered by this test: %v", sub)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 25, EndNS: 50},  // overlaps span 2 by 5
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // runs past its parent
		{ID: 5, Parent: 3, StartNS: 30, EndNS: 40},
	}
	selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - (20 + 20 + 10), 2: 20, 3: 15, 4: 30, 5: 10} {
		if got := spans[id-1].SelfNS; got != want {
			t.Errorf("span %d: self %d ns, want %d", id, got, want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "pkts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
			{Name: "cpu_us_per_pkt", Unit: "us", Better: "lower", Bound: 0.25},
		},
		PerLayer: []metricSpec{
			{Name: "scrape_ms_p50", Unit: "ms", Better: "lower"},
			{Name: "source.decode_ns_per_pkt", Unit: "ns", Better: "lower"},
		},
	}
	// The test's own bounds, so retuning the real ones leaves it alone: one
	// workload at a tight bound and one at a wide bound.
	defer func(real map[string]map[string]float64) { compareBounds = real }(compareBounds)
	compareBounds = map[string]map[string]float64{
		"pkts_per_s":     {"daemon-scrape": 0.10, "adapt-loop": 0.25},
		"cpu_us_per_pkt": {"daemon-scrape": 0.10, "adapt-loop": 0.25},
		"scrape_ms_p50":  {"daemon-scrape": 0.15},
	}
	mk := func(pps, cpu, decode, scrape, adaptPPS float64, failed int) *report {
		e2e := func(pps float64, failed int) *outcome {
			return &outcome{Result: result{Attempted: 10, Failed: failed, Metrics: map[string]metricValue{
				"pkts_per_s": {pps, "1/s"}, "cpu_us_per_pkt": {cpu, "us"}}}}
		}
		daemon := e2e(pps, failed)
		daemon.Gated = map[string]metricValue{"scrape_ms_p50": {scrape, "ms"}}
		return &report{Workloads: map[string]workloadReport{
			"daemon-scrape": {EndToEnd: daemon, PerLayer: &outcome{Result: result{Attempted: 2, Metrics: map[string]metricValue{
				"scrape_ms_p50": {0, "ms"}, "source.decode_ns_per_pkt": {decode, "ns"}}}}},
			"adapt-loop": {EndToEnd: e2e(adaptPPS, 0)},
		}}
	}
	base := mk(1000, 1, 80, 2, 100, 0)
	without := func(edit func(*report)) *report {
		r := mk(1000, 1, 80, 2, 100, 0)
		edit(r)
		return r
	}
	for _, c := range []struct {
		name      string
		candidate *report
		regressed bool
	}{
		{"identical", mk(1000, 1, 80, 2, 100, 0), false},
		{"within the bound", mk(910, 1.09, 80, 2.2, 100, 0), false},
		{"faster and cheaper", mk(2000, 0.5, 40, 1, 200, 0), false},
		{"throughput outside the bound", mk(890, 1, 80, 2, 100, 0), true},
		{"cpu outside the bound", mk(1000, 1.11, 80, 2, 100, 0), true},
		{"scrape latency outside its bound", mk(1000, 1, 80, 2.4, 100, 0), true},
		{"a workload with a wider bound", mk(1000, 1, 80, 2, 80, 0), false},
		{"outside the wider bound", mk(1000, 1, 80, 2, 70, 0), true},
		{"a per-layer metric has no bound", mk(1000, 1, 800, 2, 100, 0), false},
		{"more failed operations", mk(1000, 1, 80, 2, 100, 1), true},
		{"a workload is gone", without(func(r *report) { delete(r.Workloads, "adapt-loop") }), true},
		{"a run is gone", without(func(r *report) {
			r.Workloads["adapt-loop"] = workloadReport{PerLayer: r.Workloads["daemon-scrape"].PerLayer}
		}), true},
		{"an end-to-end metric is gone", without(func(r *report) { delete(r.Workloads["adapt-loop"].EndToEnd.Result.Metrics, "pkts_per_s") }), true},
		{"the gated extra is gone", without(func(r *report) { r.Workloads["daemon-scrape"].EndToEnd.Gated = nil }), true},
		{"an end-to-end metric reads 0", mk(1000, 0, 80, 2, 100, 0), true},
		{"a per-layer metric is gone", without(func(r *report) {
			delete(r.Workloads["daemon-scrape"].PerLayer.Result.Metrics, "source.decode_ns_per_pkt")
		}), false},
	} {
		if rows, regressed := compareReports(spec, base, c.candidate); regressed != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%+v", c.name, regressed, c.regressed, rows)
		}
	}
	// Rows come sorted by workload; adapt-loop's only run is the untraced one.
	rows, _ := compareReports(spec, base, mk(1000, 1, 80, 2, 70, 0))
	if r := rows[0]; r.Workload != "adapt-loop" || r.Metric != "pkts_per_s" || r.Verdict != "WORSE" || r.Bound != 0.25 || r.WorseBy < 0.2999 || r.WorseBy > 0.3001 {
		t.Errorf("first row = %+v", r)
	}
}

// The bounds -compare applies cover every end-to-end metric on every
// workload, never looser than the one bound BENCHMARK.json gives the driver
// for the metric; the others bound per-layer metrics an untraced run also
// measures (TestSmoke checks that each of those has one).
func TestCompareBounds(t *testing.T) {
	spec, _ := loadSpecForTest(t)
	endToEnd := map[string]bool{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = true
		for _, w := range workloads {
			if v := compareBounds[m.Name][w.name]; !(v > 0 && v <= m.Bound) {
				t.Errorf("%s on %s: -compare bound %v outside (0, %v]", m.Name, w.name, v, m.Bound)
			}
		}
	}
	for name, byWorkload := range compareBounds {
		if _, ok := spec.perLayer(name); !ok && !endToEnd[name] {
			t.Errorf("-compare bound for %s, which BENCHMARK.json does not list", name)
		}
		for w, v := range byWorkload {
			if _, err := workloadByName(w); err != nil || !(v > 0) {
				t.Errorf("-compare bound %v for %s on %q: %v", v, name, w, err)
			}
		}
	}
}

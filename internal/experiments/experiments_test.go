package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flowrank/internal/report"
)

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	want := 16 + 8 // figures + extras
	if len(ids) != want {
		t.Errorf("%d experiment ids, want %d: %v", len(ids), want, ids)
	}
	for i := 1; i <= 16; i++ {
		id := "fig" + pad2(i)
		if Title(id) == "" {
			t.Errorf("missing figure %s", id)
		}
	}
}

func pad2(i int) string {
	if i < 10 {
		return "0" + strconv.Itoa(i)
	}
	return strconv.Itoa(i)
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("fig99", Options{}); err == nil {
		t.Error("unknown id accepted")
	}
	if Title("nope") != "" {
		t.Error("unknown title should be empty")
	}
}

// runAndRender executes an experiment at reduced scale and sanity-checks
// the table structure.
func runAndRender(t *testing.T, id string) []*report.Table {
	t.Helper()
	tables, err := Run(id, Options{Seed: 42})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	for _, tab := range tables {
		if tab.ID == "" || tab.Title == "" || len(tab.Columns) < 2 || len(tab.Rows) == 0 {
			t.Fatalf("%s: malformed table %+v", id, tab)
		}
		for ri, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Fatalf("%s: row %d has %d cells, want %d", id, ri, len(row), len(tab.Columns))
			}
		}
		var buf bytes.Buffer
		if err := tab.Fprint(&buf); err != nil {
			t.Fatalf("%s: render: %v", id, err)
		}
		if !strings.Contains(buf.String(), tab.ID) {
			t.Fatalf("%s: render missing id", id)
		}
	}
	return tables
}

func TestModelFiguresShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("model figures take a few seconds")
	}
	// Fig 4: metric decreasing in p (down each column), increasing in t
	// (across each row).
	tabs := runAndRender(t, "fig04")
	rows := tabs[0].Rows
	for c := 1; c <= 5; c++ {
		for r := 1; r < len(rows); r++ {
			prev := mustFloat(t, rows[r-1][c])
			cur := mustFloat(t, rows[r][c])
			if cur > prev*1.01 {
				t.Errorf("fig04 col %d: metric rose from %g to %g as p grew", c, prev, cur)
			}
		}
	}
	for _, row := range rows {
		for c := 2; c <= 5; c++ {
			if mustFloat(t, row[c]) < mustFloat(t, row[c-1])*0.99 {
				t.Errorf("fig04: metric should grow with t: row %v", row)
			}
		}
	}
}

func TestDetectionBelowRankingFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("model figures take a few seconds")
	}
	rank := runAndRender(t, "fig04")[0].Rows
	det := runAndRender(t, "fig10")[0].Rows
	if len(rank) != len(det) {
		t.Fatal("row mismatch")
	}
	for r := range rank {
		for c := 1; c <= 5; c++ {
			if mustFloat(t, det[r][c]) > mustFloat(t, rank[r][c])*1.01 {
				t.Errorf("detection above ranking at row %d col %d", r, c)
			}
		}
	}
}

func TestSimFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sim figures take tens of seconds")
	}
	tabs := runAndRender(t, "fig12")
	if len(tabs) != 2 {
		t.Fatalf("fig12 should emit 1-minute and 5-minute panels, got %d", len(tabs))
	}
	// Column layout: time, flows, then mean/std pairs for 4 rates; higher
	// rates must rank better when averaged across bins.
	rows := tabs[0].Rows
	lowSum, highSum := 0.0, 0.0
	for _, row := range rows {
		lowSum += mustFloat(t, row[2])           // p=0.1% mean
		highSum += mustFloat(t, row[len(row)-2]) // p=50% mean
	}
	if highSum >= lowSum {
		t.Errorf("fig12: p=50%% (%g) should beat p=0.1%% (%g)", highSum, lowSum)
	}
	// Detection figure reuses the cached sim: must be cheap and lower.
	det := runAndRender(t, "fig14")
	detRows := det[0].Rows
	for r := range rows {
		for c := 2; c < len(rows[r]); c += 2 {
			if mustFloat(t, detRows[r][c]) > mustFloat(t, rows[r][c])*1.01+1e-9 {
				t.Errorf("fig14 detection above fig12 ranking at row %d col %d", r, c)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite the golden tables under testdata/")

// TestFigureTablesGolden pins the rendered tables — every cell, title and
// note — of every figure that runs in about a second or less at reduced
// scale, all of them independent of the worker count: the model figures
// of §3–§7 and the kernel ablation, the trace-driven figures 12–16 of §8
// (sim.Run: each run's counts are added in run order, so the running
// means do not depend on which worker finished first), the sequence-number
// and bounded-memory sketch figures, whose rows are the Space-Saving and
// Count-Min tables' results on a fixed sampled stream, the inversion,
// coordination and dynamic control-plane figures, which walk the mixture
// quantile, the per-link model curves and the per-bin controller end to
// end, the adaptive controller's figure, and fastpath, the one figure that
// expands flows into packets (packetgen.Stream) and feeds them to the
// monitor's stream engine (sim.RunPackets).
// Regenerate with:
//
//	go test ./internal/experiments -run TestFigureTablesGolden -update
func TestFigureTablesGolden(t *testing.T) {
	ids := []string{"fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
		"fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "kernels", "seqest", "sketch",
		"invert", "coord", "dynamic", "adaptive", "fastpath"}
	for _, id := range ids {
		var got bytes.Buffer
		for _, tab := range runAndRender(t, id) {
			if err := tab.Fprint(&got); err != nil {
				t.Fatal(err)
			}
		}
		golden := filepath.Join("testdata", id+".golden")
		if *update {
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s drifted from %s (regenerate with -update if intended):\n--- got\n%s\n--- want\n%s",
				id, golden, got.String(), want)
		}
	}
}

func TestExtrasRun(t *testing.T) {
	if testing.Short() {
		t.Skip("extras take seconds")
	}
	for _, id := range []string{"kernels", "seqest", "adaptive"} {
		runAndRender(t, id)
	}
}

// TestSketchExperiment pins the sketch figure's acceptance shape: the
// exact baseline row scores a perfect overlap with itself, every
// overlap is a valid fraction, the bounded rows respect their slot
// budgets, and at the largest budget each sketch tracks the sampled
// top-10 at least as well as at the smallest (memory never hurts).
func TestSketchExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("sketch sweep takes seconds")
	}
	tabs := runAndRender(t, "sketch")
	rows := tabs[0].Rows
	type cell struct{ small, large float64 }
	best := map[string]*cell{} // rate|kind -> overlap at smallest/largest budget
	for _, row := range rows {
		vsSampled := mustFloat(t, row[3])
		vsTrue := mustFloat(t, row[4])
		if vsSampled < 0 || vsSampled > 1 || vsTrue < 0 || vsTrue > 1 {
			t.Fatalf("overlap out of range: %v", row)
		}
		if row[1] == "exact" {
			if vsSampled != 1 {
				t.Errorf("exact row vs-sampled overlap = %v", row[3])
			}
			continue
		}
		k := row[0] + "|" + row[1]
		if best[k] == nil {
			best[k] = &cell{small: vsSampled} // budgets ascend within a group
		}
		best[k].large = vsSampled
	}
	for k, c := range best {
		if c.large+1e-9 < c.small {
			t.Errorf("%s: overlap fell from %g to %g as the budget grew", k, c.small, c.large)
		}
	}
}

// TestInvertExperiment: the inversion comparison must run at reduced
// scale and show EM beating the naive 1/p baseline in distribution
// distance on every (law, rate) cell — the qualitative shape the figure
// exists to demonstrate.
func TestInvertExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("inversion sweep takes seconds")
	}
	tabs := runAndRender(t, "invert")
	for _, row := range tabs[0].Rows {
		naiveKS := mustFloat(t, row[2])
		emKS := mustFloat(t, row[4])
		if !(emKS < naiveKS) {
			t.Errorf("%s p=%s: EM KS %g not below naive %g", row[0], row[1], emKS, naiveKS)
		}
	}
}

// TestCoordExperiment is the coord figure's acceptance shape: on every
// (workload, budget) row the Coordinated allocator strictly beats the
// Uniform baseline on the simulated network-wide ranking fraction, and
// never loses on top-k recovery; within a workload, growing budgets never
// hurt the coordinated ranking fraction.
func TestCoordExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("coordination sweep takes tens of seconds")
	}
	tabs := runAndRender(t, "coord")
	rows := tabs[0].Rows
	prevWorkload := ""
	prevCoord := 0.0
	for _, row := range rows {
		uniform := mustFloat(t, row[2])
		coord := mustFloat(t, row[4])
		if !(coord < uniform) {
			t.Errorf("%s budget %s%%: coordinated %g not strictly below uniform %g",
				row[0], row[1], coord, uniform)
		}
		if mustFloat(t, row[7]) < mustFloat(t, row[6])-1e-9 {
			t.Errorf("%s budget %s%%: coordinated top-k %s below uniform %s",
				row[0], row[1], row[7], row[6])
		}
		if row[0] == prevWorkload && coord > prevCoord*1.05+1e-9 {
			t.Errorf("%s: coordinated fraction rose from %g to %g as the budget grew",
				row[0], prevCoord, coord)
		}
		prevWorkload, prevCoord = row[0], coord
	}
}

// TestDynamicExperiment pins the dynamic control-plane figure's shape:
// re-allocating every bin strictly beats the static-once allocation at
// every tested budget on the churning workload, and the dynamic policy's
// realized load never exceeds the enforced budget beyond the documented
// last-flow overshoot. It runs in short mode: the reduced scale is the
// cheapest sweep that still shows the qualitative gap.
func TestDynamicExperiment(t *testing.T) {
	tabs := runAndRender(t, "dynamic")
	rows := tabs[0].Rows
	if len(rows) < 2 {
		t.Fatalf("dynamic: only %d budget rows", len(rows))
	}
	for _, row := range rows {
		static, dynamic := mustFloat(t, row[2]), mustFloat(t, row[3])
		if !(dynamic < static) {
			t.Errorf("%s budget %s%%: dynamic %g not strictly below static %g",
				row[0], row[1], dynamic, static)
		}
		if util := mustFloat(t, row[6]); util > 1.02 {
			t.Errorf("%s budget %s%%: dynamic max util %g above enforced bound", row[0], row[1], util)
		}
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

package experiments

import (
	"fmt"

	"flowrank/internal/core"
	"flowrank/internal/dist"
	"flowrank/internal/report"
)

// Paper calibration constants (§6): mean flow sizes in packets (bytes per
// [1] divided by 500-byte packets) and total flow counts per 5-minute
// measurement interval.
const (
	meanPktsFiveTuple = 9.6  // 4.8 KB
	meanPktsPrefix24  = 33.2 // 16.6 KB
	nFiveTuple        = 700_000
	nPrefix24         = 100_000
	defaultBeta       = 1.5
)

func sprintModel(opts Options, n, t int, meanPkts, beta float64) core.Model {
	return core.Model{
		N:       n,
		T:       t,
		Dist:    dist.ParetoWithMean(meanPkts, beta),
		Workers: opts.Workers,
	}
}

// sizeGridLog returns log-spaced integer sizes in [1, 1000] (Figs. 1, 3).
func sizeGridLog(full bool) []int {
	if full {
		return []int{1, 2, 3, 5, 8, 13, 22, 36, 60, 100, 160, 270, 440, 700, 1000}
	}
	return []int{1, 3, 10, 30, 100, 300, 1000}
}

// sizeGridLinear returns linear-spaced sizes (Fig. 2).
func sizeGridLinear(full bool) []int {
	if full {
		return []int{50, 150, 250, 350, 450, 550, 650, 750, 850, 950}
	}
	return []int{100, 300, 500, 700, 900}
}

// fig01 and fig02 print the optimal-rate surface p_d(S1, S2) for the
// target misranking probability 0.1%.
func optimalRateTable(id, title string, sizes []int) (*report.Table, error) {
	t := &report.Table{ID: id, Title: title}
	t.Columns = append(t.Columns, "S1\\S2")
	for _, s2 := range sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", s2))
	}
	for _, s1 := range sizes {
		row := []interface{}{fmt.Sprintf("%d", s1)}
		for _, s2 := range sizes {
			p, err := core.OptimalRate(s1, s2, 1e-3, core.RateExact)
			if err != nil {
				return nil, fmt.Errorf("optimal rate (%d,%d): %w", s1, s2, err)
			}
			row = append(row, p*100)
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"cells: minimum sampling rate (%) for misranking probability <= 0.1% (exact Eq. 1)",
		"diagonal: equal sizes need rates near 100%; the surface narrows as |S2-S1| grows")
	return t, nil
}

func fig01(opts Options) ([]*report.Table, error) {
	t, err := optimalRateTable("fig01",
		"optimal sampling rate (%), log-spaced sizes, Pm,d = 0.1%", sizeGridLog(opts.Full))
	if err != nil {
		return nil, err
	}
	return []*report.Table{t}, nil
}

func fig02(opts Options) ([]*report.Table, error) {
	t, err := optimalRateTable("fig02",
		"optimal sampling rate (%), linear-spaced sizes, Pm,d = 0.1%", sizeGridLinear(opts.Full))
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"fixed gap k = S2-S1: the required rate increases with flow size (paper §3.2)")
	return []*report.Table{t}, nil
}

func fig03(opts Options) ([]*report.Table, error) {
	sizes := sizeGridLog(opts.Full)
	t := &report.Table{
		ID:    "fig03",
		Title: "Gaussian approximation absolute error |Eq.1 - Eq.2| at p = 1%",
	}
	t.Columns = append(t.Columns, "S1\\S2")
	for _, s2 := range sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("%d", s2))
	}
	for _, s1 := range sizes {
		row := []interface{}{fmt.Sprintf("%d", s1)}
		for _, s2 := range sizes {
			row = append(row, core.GaussianAbsError(s1, s2, 0.01))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"error is near zero once one flow exceeds ~300 packets (pS > 3), large when both are small",
		"the equal-size diagonal keeps a large error: the paper switches to a dedicated formula there")
	return []*report.Table{t}, nil
}

// sweepFig is one "metric vs p" figure of §6–§7 (Figs. 4–11): a Sprint
// Pareto model per swept value of t, beta or N, one column each, every
// other parameter at its default (t = 10, beta = 1.5, N of the flow
// definition).
type sweepFig struct {
	id, title string
	prefix24  bool      // the /24 prefix calibration, not the 5-tuple one
	detection bool      // DetectionMetric instead of RankingMetric
	axis      string    // "t", "beta" or "N"
	values    []float64 // the swept values, one column each
	notes     []string
}

var (
	tSweep    = []float64{1, 2, 5, 10, 25}
	betaSweep = []float64{3, 2.5, 2, 1.5, 1.2}

	fig04 = sweepFig{id: "fig04", title: "ranking: 5-tuple flows, N = 0.7M, beta = 1.5, varying t",
		axis: "t", values: tSweep}
	fig05 = sweepFig{id: "fig05", title: "ranking: /24 prefix flows, N = 0.1M, beta = 1.5, varying t",
		prefix24: true, axis: "t", values: tSweep,
		notes: []string{"coarser aggregation does not significantly improve the ranking (paper §6.1)"}}
	fig06 = sweepFig{id: "fig06", title: "ranking: 5-tuple flows, N = 0.7M, t = 10, varying beta",
		axis: "beta", values: betaSweep,
		notes: []string{"heavier tails (smaller beta) rank better (paper §6.2)"}}
	fig07 = sweepFig{id: "fig07", title: "ranking: /24 prefix flows, N = 0.1M, t = 10, varying beta",
		prefix24: true, axis: "beta", values: betaSweep}
	fig08 = sweepFig{id: "fig08", title: "ranking: 5-tuple flows, t = 10, beta = 1.5, varying N",
		axis: "N", values: []float64{140_000, 350_000, 700_000, 1_750_000, 2_800_000, 3_500_000},
		notes: []string{"accuracy improves with N (larger top flows)",
			"see the kernels figure: direct simulation contradicts the paper's claim that 0.1% suffices at N = 3.5M"}}
	fig09 = sweepFig{id: "fig09", title: "ranking: /24 prefix flows, t = 10, beta = 1.5, varying N",
		prefix24: true, axis: "N", values: []float64{20_000, 50_000, 100_000, 250_000, 400_000, 500_000}}
	fig10 = sweepFig{id: "fig10", title: "detection: 5-tuple flows, N = 0.7M, beta = 1.5, varying t",
		detection: true, axis: "t", values: tSweep,
		notes: []string{"detection needs roughly an order of magnitude lower rate than ranking (paper §7.2)"}}
	fig11 = sweepFig{id: "fig11", title: "detection: /24 prefix flows, N = 0.1M, beta = 1.5, varying t",
		prefix24: true, detection: true, axis: "t", values: tSweep}
)

func (f sweepFig) run(opts Options) ([]*report.Table, error) {
	n, mean := nFiveTuple, meanPktsFiveTuple
	if f.prefix24 {
		n, mean = nPrefix24, meanPktsPrefix24
	}
	t := &report.Table{ID: f.id, Title: f.title, Columns: []string{"p(%)"}}
	models := make([]core.Model, len(f.values))
	for i, v := range f.values {
		nn, tt, beta := n, 10, defaultBeta
		switch f.axis {
		case "t":
			tt = int(v)
			t.Columns = append(t.Columns, fmt.Sprintf("t=%d", tt))
		case "beta":
			beta = v
			t.Columns = append(t.Columns, fmt.Sprintf("beta=%.2g", beta))
		case "N":
			nn = int(v)
			t.Columns = append(t.Columns, "N="+humanN(nn))
		}
		models[i] = sprintModel(opts, nn, tt, mean, beta)
	}
	for _, p := range rateGrid(opts.Full) {
		row := []interface{}{percent(p)}
		for _, m := range models {
			if f.detection {
				row = append(row, m.DetectionMetric(p))
			} else {
				row = append(row, m.RankingMetric(p))
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append([]string{"cells: average number of swapped flow pairs; values below 1 are acceptable (paper's criterion)"}, f.notes...)
	return []*report.Table{t}, nil
}

func humanN(n int) string {
	switch {
	case n >= 1_000_000 && n%100_000 == 0:
		return fmt.Sprintf("%.2gM", float64(n)/1e6)
	case n >= 1000:
		return fmt.Sprintf("%dK", n/1000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

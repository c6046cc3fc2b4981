package experiments

import (
	"fmt"

	"flowrank/internal/flow"
	"flowrank/internal/report"
	"flowrank/internal/sim"
	"flowrank/internal/tracegen"
)

// simScale describes the trace-driven experiment scale.
type simScale struct {
	traceSeconds float64
	arrivalScale float64
	runs         int
	note         string
}

func scaleFor(opts Options) simScale {
	if opts.Full {
		return simScale{traceSeconds: 1800, arrivalScale: 1, runs: 30,
			note: "paper scale: 30-minute trace, 30 sampling runs"}
	}
	return simScale{traceSeconds: 600, arrivalScale: 0.2, runs: 8,
		note: "reduced scale (10-minute trace, arrivals x0.2, 8 runs); pass -full for paper scale"}
}

// simRates is the sampling-rate set of Figs. 12–15.
var simRates = []float64{0.001, 0.01, 0.1, 0.5}

// abileneRates swaps 50% for 80% as in Fig. 16.
var abileneRates = []float64{0.001, 0.01, 0.1, 0.8}

// runSimFig builds (or fetches) the simulation behind one figure pair.
func runSimFig(opts Options, preset string, binSeconds float64, rates []float64) (*sim.Result, simScale, error) {
	sc := scaleFor(opts)
	key := fmt.Sprintf("%s/%v/%v/full=%v/seed=%d", preset, binSeconds, rates, opts.Full, opts.seed())
	v, err := simCached(key, func() (interface{}, error) {
		var cfg tracegen.Config
		switch preset {
		case "5tuple":
			cfg = tracegen.SprintFiveTuple(sc.traceSeconds, opts.seed())
		case "prefix24":
			cfg = tracegen.SprintPrefix24(sc.traceSeconds, opts.seed())
		case "abilene":
			cfg = tracegen.Abilene(sc.traceSeconds, opts.seed())
		default:
			return nil, fmt.Errorf("experiments: unknown preset %q", preset)
		}
		cfg.ArrivalRate *= sc.arrivalScale
		records, err := tracegen.Generate(cfg)
		if err != nil {
			return nil, err
		}
		return sim.Run(sim.Config{
			Records:    records,
			Agg:        flow.FiveTuple{},
			BinSeconds: binSeconds,
			Horizon:    sc.traceSeconds,
			TopT:       10,
			Rates:      rates,
			Runs:       sc.runs,
			Seed:       opts.seed() + 17,
			Workers:    opts.Workers,
		})
	})
	if err != nil {
		return nil, sc, err
	}
	return v.(*sim.Result), sc, nil
}

// simTable renders one figure panel: metric mean and std per bin per rate.
func simTable(id, title string, res *sim.Result, detection bool, sc simScale) *report.Table {
	t := &report.Table{ID: id, Title: title}
	t.Columns = []string{"time(s)", "flows"}
	for _, s := range res.Series {
		t.Columns = append(t.Columns,
			fmt.Sprintf("p=%s%% mean", percent(s.Rate)),
			fmt.Sprintf("p=%s%% std", percent(s.Rate)))
	}
	nBins := len(res.Series[0].Bins)
	for bi := 0; bi < nBins; bi++ {
		row := []interface{}{
			res.Series[0].Bins[bi].Start + res.BinSeconds,
			res.Series[0].Bins[bi].Flows,
		}
		for _, s := range res.Series {
			st := s.Bins[bi].Ranking
			if detection {
				st = s.Bins[bi].Detection
			}
			row = append(row, st.Mean(), st.Std())
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, sc.note,
		"cells: average (and std over runs) of swapped flow pairs per bin; below 1 = acceptable")
	return t
}

// simFig builds the two-panel (1-minute and 5-minute bins) trace figure.
func simFig(opts Options, id, preset string, detection bool, title string) ([]*report.Table, error) {
	var tables []*report.Table
	for _, binSeconds := range []float64{60, 300} {
		res, sc, err := runSimFig(opts, preset, binSeconds, simRates)
		if err != nil {
			return nil, err
		}
		panel := fmt.Sprintf("%s-%dmin", id, int(binSeconds/60))
		tables = append(tables, simTable(panel,
			fmt.Sprintf("%s, %g-minute bins", title, binSeconds/60),
			res, detection, sc))
	}
	return tables, nil
}

func fig12(opts Options) ([]*report.Table, error) {
	return simFig(opts, "fig12", "5tuple", false,
		"trace-driven ranking vs time, 5-tuple, top 10")
}

func fig13(opts Options) ([]*report.Table, error) {
	return simFig(opts, "fig13", "prefix24", false,
		"trace-driven ranking vs time, /24 prefix, top 10")
}

func fig14(opts Options) ([]*report.Table, error) {
	return simFig(opts, "fig14", "5tuple", true,
		"trace-driven detection vs time, 5-tuple, top 10")
}

func fig15(opts Options) ([]*report.Table, error) {
	return simFig(opts, "fig15", "prefix24", true,
		"trace-driven detection vs time, /24 prefix, top 10")
}

func fig16(opts Options) ([]*report.Table, error) {
	res, sc, err := runSimFig(opts, "abilene", 60, abileneRates)
	if err != nil {
		return nil, err
	}
	t := simTable("fig16",
		"trace-driven ranking vs time, Abilene-like (short tail, more flows), top 10, 1-minute bins",
		res, false, sc)
	t.Notes = append(t.Notes,
		"short-tailed sizes make ranking harder than Sprint at equal p (paper §8.3)")
	return []*report.Table{t}, nil
}

package experiments

import (
	"fmt"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/metrics"
	"flowrank/internal/packet"
	"flowrank/internal/packetgen"
	"flowrank/internal/report"
	"flowrank/internal/sampler"
	"flowrank/internal/tracegen"
)

// extraSketch quantifies how the two bounded-memory summaries compose
// with packet sampling: the same sampled stream feeds an exact table, a
// Space-Saving table and a Count-Min+heap table at several slot budgets,
// and each bounded top-10 is scored against both the exact sampled
// ranking (sketch error alone) and the true unsampled ranking (sampling
// and sketch error composed) — the memory-vs-fidelity trade-off of the
// paper's limited-storage future-work direction, measured.
func extraSketch(opts Options) ([]*report.Table, error) {
	cfg := tracegen.SprintFiveTuple(60, opts.seed())
	if !opts.Full {
		cfg.ArrivalRate = 500
	}
	records, err := tracegen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	rates := []float64{0.05, 0.1}
	budgets := []int{256, 1024, 4096}
	if opts.Full {
		rates = []float64{0.01, 0.05, 0.1}
		budgets = []int{256, 1024, 4096, 16384}
	}
	const topK = 10
	t := &report.Table{
		ID:    "sketch",
		Title: "bounded-memory summaries under sampling: top-10 fidelity vs slot budget vs rate",
		Columns: []string{"p(%)", "table", "slots",
			"vs sampled top-10", "vs true top-10", "err bound", "tracked"},
	}
	for _, p := range rates {
		orig := flowtable.NewFlat(flow.FiveTuple{}, 0)
		exact := flowtable.NewFlat(flow.FiveTuple{}, 0)
		type boundedRun struct {
			name string
			k    int
			sum  flowtable.Summary
		}
		var runs []boundedRun
		for _, k := range budgets {
			runs = append(runs,
				boundedRun{"spacesaving", k, flowtable.NewSpaceSaving(flow.FiveTuple{}, k)},
				boundedRun{"countmin", k, flowtable.NewCountMin(flow.FiveTuple{}, k)})
		}
		smp := sampler.NewBernoulli(p, opts.seed()+9)
		err = packetgen.Stream(records, opts.seed()+13, func(pk packet.Packet) error {
			orig.Add(pk)
			if !smp.Sample(pk) {
				return nil
			}
			exact.Add(pk)
			for _, r := range runs {
				r.sum.AddAggregated(pk.Key, pk.Time, int64(pk.Size))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		trueTop := orig.Top(topK)
		exactTop := exact.Top(topK)
		t.AddRow(percent(p), "exact", "-",
			1.0, metrics.TopKOverlap(trueTop, exactTop, topK), int64(0), exact.Len())
		for _, r := range runs {
			top := r.sum.AppendTop(nil, topK)
			t.AddRow(percent(p), r.name, r.k,
				metrics.TopKOverlap(exactTop, top, topK),
				metrics.TopKOverlap(trueTop, top, topK),
				r.sum.ErrorBound(), r.sum.Len())
		}
	}
	t.Notes = append(t.Notes,
		"vs sampled: overlap with the exact table's top-10 of the same sampled stream (sketch error alone)",
		"vs true: overlap with the unsampled top-10 (sampling and sketch error composed)",
		fmt.Sprintf("err bound: worst-case per-flow packet overcount (Space-Saving deterministic, Count-Min holds w.p. >= %g)", 1-1.0/16))
	return []*report.Table{t}, nil
}

package experiments

import (
	"fmt"

	"flowrank/internal/dist"
	"flowrank/internal/invert"
	"flowrank/internal/metrics"
	"flowrank/internal/netsample"
	"flowrank/internal/report"
	"flowrank/internal/tracegen"
)

// extraDynamic is the dynamic control-plane figure: on a time-varying
// fat-tree workload (the tracegen churn preset re-draws a fraction of the
// per-pair demand every measurement bin), it compares three per-bin
// policies at each budget level:
//
//   - static: Observe + Allocate once on the first bin, reuse that
//     allocation for every later bin — the deployment that never adapts;
//   - dynamic: the netsample.Controller loop — re-Observe and
//     re-Allocate every bin, capping rates by the previous bin's
//     realized loads (size-aware);
//   - oracle: re-allocate every bin against the exact per-link truth —
//     the upper bound re-observation approximates.
//
// All three policies are simulated per bin with shared seeds and with
// budgets enforced as hard quotas (SimulateBudgeted), so their ranking
// fractions differ only by the allocations themselves and nobody buys
// quality with packets its budget does not cover — a stale static
// allocation exhausts grown switches' quotas partway through the bin and
// pays in truncated estimates. The table reports the bin-aggregated
// ranking fraction per policy, the static/dynamic gain and the dynamic
// policy's worst realized-vs-budget ratio.
func extraDynamic(opts Options) ([]*report.Table, error) {
	const topT = 10
	bins, traceSeconds, arrival, runs := 3, 8.0, 150.0, 2
	fracs := []float64{0.02, 0.05, 0.1}
	presets := []tracegen.Preset{tracegen.PresetChurn}
	if opts.Full {
		bins, traceSeconds, arrival, runs = 8, 30, 600, 5
		fracs = []float64{0.01, 0.02, 0.05, 0.1}
		presets = append(presets, tracegen.PresetDiurnal)
	}
	t := &report.Table{
		ID: "dynamic",
		Title: fmt.Sprintf(
			"dynamic control plane: static-once vs per-bin re-allocation vs oracle, churning fat tree, %d bins, top %d per link (%d runs)",
			bins, topT, runs),
		Columns: []string{"preset", "budget(%)",
			"static", "dynamic", "oracle", "gain", "max util"},
	}
	for _, preset := range presets {
		topo := netsample.FatTree(1) // budgets set per sweep point
		dc := tracegen.DynamicConfig{
			Base: tracegen.Config{
				Name:            "net-dynamic",
				Duration:        traceSeconds,
				ArrivalRate:     arrival,
				SizeDist:        dist.ParetoWithMean(9.6, 1.5),
				MeanPacketBytes: 500,
				Durations:       tracegen.LognormalDurationWithMean(5, 1.0),
				Seed:            opts.seed() + 71,
			},
			Bins:   bins,
			Preset: preset,
		}
		binFlows, err := netsample.GenerateDynamicWorkload(topo, dc)
		if err != nil {
			return nil, err
		}
		// Exact per-bin demands: the oracle's input and the budget base
		// (budgets are set from the time-mean offered load, so no single
		// bin defines what the switches may spend).
		trueDs := make([]*netsample.Demand, bins)
		meanOffered := map[string]float64{}
		for b, flows := range binFlows {
			td, err := netsample.TrueDemand(topo, flows, topT)
			if err != nil {
				return nil, err
			}
			td.Workers = opts.Workers
			trueDs[b] = td
			for sw, l := range netsample.OfferedLoads(td) {
				meanOffered[sw] += l / float64(bins)
			}
		}
		// The static policy's one observation: first bin only.
		d0, err := netsample.Observe(topo, binFlows[0], 0.1, invert.EM{}, topT, opts.seed()+72)
		if err != nil {
			return nil, err
		}
		d0.Workers = opts.Workers
		alloc := netsample.Coordinated{}
		for _, frac := range fracs {
			budgets := make(map[string]float64, len(topo.Switches()))
			for _, sw := range topo.Switches() {
				b := frac * meanOffered[sw.ID]
				if b <= 0 {
					b = 1
				}
				budgets[sw.ID] = b
			}
			if err := topo.SetBudgets(budgets); err != nil {
				return nil, err
			}
			aStatic, err := alloc.Allocate(d0)
			if err != nil {
				return nil, fmt.Errorf("dynamic: static allocation at %g: %w", frac, err)
			}
			ctl := &netsample.Controller{
				Topo:      topo,
				Alloc:     alloc,
				Estimator: invert.EM{},
				ProbeRate: 0.1,
				TopT:      topT,
				Seed:      opts.seed() + 73,
				Workers:   opts.Workers,
			}
			brs, err := ctl.Run(binFlows)
			if err != nil {
				return nil, fmt.Errorf("dynamic: controller at %g: %w", frac, err)
			}
			// Re-simulate all three policies per bin with one shared seed,
			// so the comparison sees identical sampling noise.
			var agg [3]metrics.PairCounts
			maxRatio := 0.0
			for b, flows := range binFlows {
				aOracle, err := alloc.Allocate(trueDs[b])
				if err != nil {
					return nil, fmt.Errorf("dynamic: oracle bin %d at %g: %w", b, frac, err)
				}
				simSeed := opts.seed() + 74 + uint64(b)
				for i, a := range []*netsample.Allocation{aStatic, brs[b].Allocation, aOracle} {
					res, err := netsample.SimulateBudgeted(topo, flows, a, topT, runs, simSeed)
					if err != nil {
						return nil, fmt.Errorf("dynamic: simulating bin %d at %g: %w", b, frac, err)
					}
					agg[i].Ranking += res.Pairs.Ranking
					agg[i].Detection += res.Pairs.Detection
					agg[i].Pairs += res.Pairs.Pairs
					agg[i].BoundaryPairs += res.Pairs.BoundaryPairs
					if i == 1 && res.MaxBudgetRatio > maxRatio {
						maxRatio = res.MaxBudgetRatio
					}
				}
			}
			static, dynamic, oracle := agg[0].RankingFrac(), agg[1].RankingFrac(), agg[2].RankingFrac()
			gain := 0.0
			if dynamic > 0 {
				gain = static / dynamic
			}
			t.AddRow(string(preset), percent(frac),
				static, dynamic, oracle, gain, maxRatio)
		}
	}
	t.Notes = append(t.Notes,
		"budget(%): every switch may sample that fraction of its time-mean traversing load per bin",
		"static/dynamic/oracle: bin-aggregated swapped-pair ranking fraction (lower is better); gain = static/dynamic",
		"budgets are enforced as hard per-bin quotas: a switch that exhausts its quota truncates everything after, so stale rates cost quality instead of silently overspending",
		"max util: the dynamic policy's worst per-switch realized-sampled-to-budget ratio over all bins (1 = exactly on budget; enforcement keeps it at most ~1)")
	return []*report.Table{t}, nil
}

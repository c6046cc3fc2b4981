package flowrank

// One benchmark per table/figure of the paper, plus the ablation and
// extension experiments. Each benchmark regenerates the corresponding
// figure through the same code path as cmd/flowrank-bench (reduced scale;
// run the binary with -full for paper scale). Trace-driven figures share a
// process-wide result cache, so their first iteration carries the real
// cost.

import (
	"fmt"
	"testing"

	"flowrank/internal/experiments"
)

func benchFigure(b *testing.B, id string) {
	opts := experiments.Options{Seed: 7}
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, opts)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s: empty result", id)
		}
	}
}

// Figs. 1–3: pairwise misranking probability and optimal rates (§3–4).
func BenchmarkFig01OptimalRateLog(b *testing.B)    { benchFigure(b, "fig01") }
func BenchmarkFig02OptimalRateLinear(b *testing.B) { benchFigure(b, "fig02") }
func BenchmarkFig03GaussianError(b *testing.B)     { benchFigure(b, "fig03") }

// Figs. 4–9: the ranking model (§5–6).
func BenchmarkFig04RankingTSweep5Tuple(b *testing.B)    { benchFigure(b, "fig04") }
func BenchmarkFig05RankingTSweepPrefix24(b *testing.B)  { benchFigure(b, "fig05") }
func BenchmarkFig06RankingBetaSweep5Tuple(b *testing.B) { benchFigure(b, "fig06") }
func BenchmarkFig07RankingBetaSweepPrefix(b *testing.B) { benchFigure(b, "fig07") }
func BenchmarkFig08RankingNSweep5Tuple(b *testing.B)    { benchFigure(b, "fig08") }
func BenchmarkFig09RankingNSweepPrefix24(b *testing.B)  { benchFigure(b, "fig09") }

// Figs. 10–11: the detection model (§7).
func BenchmarkFig10DetectionTSweep5Tuple(b *testing.B)   { benchFigure(b, "fig10") }
func BenchmarkFig11DetectionTSweepPrefix24(b *testing.B) { benchFigure(b, "fig11") }

// Figs. 12–16: trace-driven simulation (§8).
func BenchmarkFig12TraceRanking5Tuple(b *testing.B)     { benchFigure(b, "fig12") }
func BenchmarkFig13TraceRankingPrefix24(b *testing.B)   { benchFigure(b, "fig13") }
func BenchmarkFig14TraceDetection5Tuple(b *testing.B)   { benchFigure(b, "fig14") }
func BenchmarkFig15TraceDetectionPrefix24(b *testing.B) { benchFigure(b, "fig15") }
func BenchmarkFig16TraceRankingAbilene(b *testing.B)    { benchFigure(b, "fig16") }

// Ablations and extensions (README: "Layout", layer 3, and the sections
// on the inversion, sketch and coordination extensions).
func BenchmarkAblationKernels(b *testing.B)   { benchFigure(b, "kernels") }
func BenchmarkAblationFastpath(b *testing.B)  { benchFigure(b, "fastpath") }
func BenchmarkExtensionSketch(b *testing.B)   { benchFigure(b, "sketch") }
func BenchmarkExtensionSeqest(b *testing.B)   { benchFigure(b, "seqest") }
func BenchmarkExtensionAdaptive(b *testing.B) { benchFigure(b, "adaptive") }
func BenchmarkExtensionCoord(b *testing.B)    { benchFigure(b, "coord") }

// --- public API micro-benchmarks -----------------------------------------

func BenchmarkModelRankingMetric(b *testing.B) {
	m := Model{N: 700_000, T: 10, Dist: ParetoWithMean(9.6, 1.5), PoissonTails: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.RankingMetric(0.1)
	}
}

// BenchmarkModelRankingSpliced scores the model over the spliced
// Empirical-body + Pareto-tail mixture that invert.TailScaling feeds back
// into the control loop. The inner integrals invert the mixture CCDF at
// every quadrature node; before the step atlas (internal/dist) those
// inversions fell through to bisection on the body's atoms, making this
// ~50x slower than the smooth-law benchmark above.
func BenchmarkModelRankingSpliced(b *testing.B) {
	body := make([]float64, 2000)
	for i := range body {
		// Mostly-distinct sizes with a few heavy duplicates — the shape of
		// a scaled sample.
		body[i] = 1 + float64(i%37) + float64(i)*7.3e-4
	}
	mix, err := NewMixture(
		MixtureComponent{Weight: 0.9, Dist: NewEmpirical(body)},
		MixtureComponent{Weight: 0.1, Dist: Pareto{Scale: 40, Shape: 1.3}},
	)
	if err != nil {
		b.Fatal(err)
	}
	m := Model{N: 700_000, T: 10, Dist: mix, PoissonTails: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.RankingMetric(0.1)
	}
}

func BenchmarkModelDetectionMetric(b *testing.B) {
	m := Model{N: 700_000, T: 10, Dist: ParetoWithMean(9.6, 1.5), PoissonTails: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.DetectionMetric(0.1)
	}
}

func BenchmarkMisrankExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = MisrankExact(500, 600, 0.05)
	}
}

func BenchmarkSimulateSmall(b *testing.B) {
	records := genTrace(b, SprintFiveTuple(60, 1), 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Simulate(SimConfig{
			Records: records, BinSeconds: 60, Horizon: 60, TopT: 10,
			Rates: []float64{0.1}, Runs: 5, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPackets expands a 10 s sprint5 flow trace (200 flows/s)
// into its time-ordered packets, the expansion behind tracegen's -packets
// and -pcap outputs and the packets sim.RunPackets feeds the stream
// engine: ns/pkt is its cost per emitted packet, allocs/op what one whole
// expansion allocates.
func BenchmarkStreamPackets(b *testing.B) {
	records := genTrace(b, SprintFiveTuple(10, 1), 200)
	var n int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		if err := StreamPackets(records, uint64(i), func(Packet) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "packets/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n)/float64(b.N), "ns/pkt")
}

// BenchmarkNetworkCoordSimulate measures the network-wide pipeline at the
// reduced fat-tree scale: allocation (uniform and coordinated, sharing
// one demand's model curves) plus one simulated run each. It is part of
// the CI bench-smoke regex, so the coordination hot path has a recorded
// trajectory.
func BenchmarkNetworkCoordSimulate(b *testing.B) {
	topo := FatTreeTopology(1)
	flows := networkWorkload(b, topo)
	demand := budgetedDemand(b, topo, flows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alloc := range []Allocator{UniformAllocator{}, CoordinatedAllocator{}} {
			a, err := AllocateRates(demand, alloc)
			if err != nil {
				b.Fatal(err)
			}
			res, err := NetworkRank(topo, flows, a, 10, 1, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			if !(res.RankFrac >= 0) {
				b.Fatal("degenerate result")
			}
		}
	}
	b.ReportMetric(float64(len(flows)), "flows/op")
}

// BenchmarkNetworkDynamicLoop measures one pass of the dynamic control
// plane over a churning reduced fat-tree workload: per bin, observe and
// re-allocate (every link's model curves fitted afresh, rates capped by
// the previous bin's realized loads).
// It is part of the CI bench-smoke regex, so the control loop's cost has
// a recorded trajectory.
func BenchmarkNetworkDynamicLoop(b *testing.B) {
	topo := FatTreeTopology(1)
	cfg := SprintFiveTuple(6, 3)
	cfg.ArrivalRate = 120
	var dc DynamicTraceConfig = ChurnWorkload(cfg, 2)
	if want := DynamicPreset("churn"); dc.Preset != want {
		b.Fatalf("ChurnWorkload drifts under the %q law, want %q", dc.Preset, want)
	}
	bins, err := GenerateDynamicNetworkWorkload(topo, dc)
	if err != nil {
		b.Fatal(err)
	}
	budgetedDemand(b, topo, bins[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl := &NetworkController{
			Topo:      topo,
			Alloc:     WaterfillAllocator{},
			Estimator: EMInverter{},
			ProbeRate: 0.1,
			TopT:      10,
			Seed:      uint64(i) + 1,
		}
		var out []*NetworkBinResult
		out, err = ctl.Run(bins)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(bins) {
			b.Fatal("degenerate result")
		}
	}
	b.ReportMetric(float64(len(bins)), "bins/op")
}

// BenchmarkStreamEngine measures the sharded streaming monitor's
// ingestion throughput across worker counts on a multi-bin trace
// (packets are materialized once, outside the timer). On multi-core
// hardware the pkts/s metric scales with workers until the sequential
// sampling/dispatch reader saturates.
func BenchmarkStreamEngine(b *testing.B) {
	var pkts []Packet
	if err := StreamPackets(genTrace(b, SprintFiveTuple(30, 1), 400), 1, func(p Packet) error {
		pkts = append(pkts, p)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := NewStreamEngine(StreamConfig{
					Agg:        FiveTuple{},
					Sampler:    NewBernoulli(0.1, 7),
					BinSeconds: 5,
					TopT:       10,
					Workers:    workers,
				}, func(StreamBin) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				feedAll(b, eng, pkts)
			}
			b.ReportMetric(float64(len(pkts))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
}

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

// BenchmarkStreamPackets expands a flow trace into its time-ordered
// packets, the expansion behind tracegen's -packets and -pcap outputs and
// the packets sim.RunPackets feeds the stream engine: ns/pkt is its cost
// per emitted packet, allocs/op what one whole expansion allocates. The
// 2000-flow case is a 10 s sprint5 trace at 200 flows/s; batch-exact is
// the benchmark workload's trace, 30 s of sprint5 at 4× its arrival rate
// (2.7 M packets, ~100 k flows active at once), where the merge's cost
// per packet would grow with the active flows if it sifted a heap.
func BenchmarkStreamPackets(b *testing.B) {
	for _, bc := range []struct {
		name    string
		seconds float64
		rate    float64
	}{
		{"2000-flows", 10, 200},
		{"batch-exact", 30, 4 * SprintFiveTuple(0, 1).ArrivalRate},
	} {
		b.Run(bc.name, func(b *testing.B) {
			records := genTrace(b, SprintFiveTuple(bc.seconds, 1), bc.rate)
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
		})
	}
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

// feedAll feeds the packets to the engine in order and closes it.
func feedAll(tb testing.TB, eng *StreamEngine, pkts []Packet) {
	tb.Helper()
	for _, p := range pkts {
		if err := eng.Feed(p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		tb.Fatal(err)
	}
}

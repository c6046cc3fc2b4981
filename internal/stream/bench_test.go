package stream

import (
	"fmt"
	"runtime"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/packet"
	"flowrank/internal/sampler"
)

// BenchmarkEngine measures ingestion throughput of the sharded engine on a
// multi-bin trace across worker counts. On a multi-core machine the
// packets/s metric should scale near-linearly until the single-threaded
// reader stage saturates; on a single-core machine the worker counts tie
// (parallelism cannot beat the core count, only the algorithmic wins
// remain).
//
// The inline/ runs are the guard on Feed itself, in ns: one warm
// single-shard engine with Recycle set is fed the trace again and again at
// shifted times, so ns/pkt is the reader stage plus an exact-table ingest
// with no construction, hand-off or growth in it, and allocs/pkt must read
// 0. 5tuple aggregates by copying the key, prefix24 by building a new one —
// the two shapes of key hand-over between Aggregate, FastHash and the batch.
func BenchmarkEngine(b *testing.B) {
	pkts := makePackets(b, 30, 400, 1)
	run := func(name string, workers int, tables flowtable.Spec) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := NewEngine(Config{
					Agg:        flow.FiveTuple{},
					Sampler:    sampler.NewBernoulli(0.1, 7),
					BinSeconds: 5,
					TopT:       10,
					Workers:    workers,
					Tables:     tables,
				}, func(BinResult) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pkts {
					if err := eng.Feed(p); err != nil {
						b.Fatal(err)
					}
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(pkts))*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
		})
	}
	inline := func(name string, agg flow.Aggregator) {
		b.Run("inline/"+name, func(b *testing.B) {
			eng, err := NewEngine(Config{
				Agg:        agg,
				Sampler:    sampler.NewBernoulli(0.1, 7),
				BinSeconds: 5,
				TopT:       10,
				Workers:    1,
				Recycle:    true,
			}, func(BinResult) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			const span = 35 // the 30 s trace plus a bin: every pass starts on a bin boundary
			pass := func(i int) {
				for _, p := range pkts {
					p.Time += float64(i) * span
					if err := eng.Feed(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			pass(0) // tables and bin buffers reach their steady size
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass(i + 1)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * float64(len(pkts))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/pkt")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/pkt")
		})
	}
	inline("5tuple", flow.FiveTuple{})
	inline("prefix24", flow.DstPrefix{Bits: 24})
	for _, workers := range []int{1, 2, 4, 8} {
		run(fmt.Sprintf("workers=%d", workers), workers, flowtable.Spec{})
	}
	// The daemon-scrape configuration: Count-Min shards of 4096 slots.
	for _, workers := range []int{1, 2} {
		run(fmt.Sprintf("countmin/workers=%d", workers), workers, flowtable.Spec{Kind: flowtable.KindCountMin, Slots: 4096})
	}
}

// BenchmarkBinClose times the bin boundary alone on the shape of the
// benchmark's batch-exact workload: one exact shard holding 280k flows
// (heavy-tailed: every 512th flow has up to ~550 packets, the rest one),
// sampled at 1 %, top list of 10. The fill is untimed; ns/flow is what
// summarize + merge + swapped-pair count charge each flow of the bin —
// the cost a full sort used to dominate.
func BenchmarkBinClose(b *testing.B) {
	const flows = 280_000
	eng, err := NewEngine(Config{
		Agg:        flow.FiveTuple{},
		Sampler:    sampler.NewBernoulli(0.01, 7),
		BinSeconds: 60,
		TopT:       10,
		Workers:    1,
		Recycle:    true,
	}, func(BinResult) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for f := 0; f < flows; f++ {
			p := packet.Packet{Time: 1, Size: 100, Key: flow.Key{
				Src: flow.Addr{10, byte(f >> 16), byte(f >> 8), byte(f)}, DstPort: 80, Proto: flow.ProtoTCP,
			}}
			n := 1
			if f%512 == 0 {
				n += f / 512
			}
			for ; n > 0; n-- {
				if err := eng.Feed(p); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		if err := eng.flushBin(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/flows, "ns/flow")
}

package stream

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/invert"
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
// The warm/ runs are the guard on Feed itself, in ns: one warm one-worker
// engine with Recycle set is fed the trace again and again at shifted
// times, in blocks of packet.BlockLen packets as the pipeline feeds it, so ns/pkt is the reader stage, the hand-off and an exact-table
// ingest with no construction or growth in it, and allocs/pkt must read
// 0. 5tuple aggregates by copying the key, prefix24 by building a new one —
// the two shapes of key hand-over between Aggregate, FastHash and the batch.

func BenchmarkEngine(b *testing.B) {
	pkts := makePackets(b, 30, 400, 1)
	run := func(name string, workers int, agg flow.Aggregator, tables flowtable.Spec) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng, err := NewEngine(Config{
					Agg:        agg,
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
	warm := func(name string, agg flow.Aggregator) {
		b.Run("warm/"+name, func(b *testing.B) {
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
			blk := make([]packet.Packet, 0, packet.BlockLen)
			pass := func(i int) {
				for j, p := range pkts {
					p.Time += float64(i) * span
					blk = append(blk, p)
					if len(blk) == packet.BlockLen || j == len(pkts)-1 {
						if err := eng.Feed(blk...); err != nil {
							b.Fatal(err)
						}
						blk = blk[:0]
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
	warm("5tuple", flow.FiveTuple{})
	warm("prefix24", flow.DstPrefix{Bits: 24})
	for _, workers := range []int{1, 2, 4, 8} {
		run(fmt.Sprintf("workers=%d", workers), workers, flow.FiveTuple{}, flowtable.Spec{})
	}
	// The same trace aggregated to /24 destination prefixes, which Feed
	// calls the aggregator for where it copies a 5-tuple's key.
	for _, workers := range []int{1, 2} {
		run(fmt.Sprintf("prefix24/workers=%d", workers), workers, flow.DstPrefix{Bits: 24}, flowtable.Spec{})
	}
	// The daemon-scrape configuration: Count-Min shards of 4096 slots.
	for _, workers := range []int{1, 2} {
		run(fmt.Sprintf("countmin/workers=%d", workers), workers, flow.FiveTuple{}, flowtable.Spec{Kind: flowtable.KindCountMin, Slots: 4096})
	}
}

// BenchmarkBinClose times the bin boundary alone — the shards ranking and
// scoring their flows, the merges and the hand-over of the sampled counts
// to the inverter — on the shapes of three benchmark workloads' bins, top
// list of 10:
//
//   - batch-exact: one exact shard holding 280k flows (heavy-tailed: every
//     512th flow has up to ~550 packets, the rest one), sampled at 1 %;
//   - adapt-loop: two exact shards holding 47k flows of 1 to ~110 packets
//     (~480k packets), sampled at 10 %, with an inverter — the shape where
//     the shards' outputs are merged;
//   - sparse-after-dense: daemon-scrape's quiet bins — two shards with a
//     4096-slot Count-Min sampled table, whose exact originals an untimed
//     100k-flow bin has grown to 131 072 slots each, closing bins of 10
//     flows of 100 packets, sampled at 1 %. A close that scanned or cleared
//     the originals by their size would cost the dense bin's flows here.
//
// The fill is untimed and fully ingested before the clock starts, and the
// inverter returns at once, so ns/flow is what closing the bin charges each
// of its flows, and ns/bin the whole close. warm/ closes bin after bin of
// one engine with Recycle set, so every buffer the close writes is already
// allocated and faulted in, and allocs/op must read 0. first/ closes the
// first bin of a fresh engine, with the heap handed back to the OS before
// the fill: the close allocates what it writes and takes the page faults,
// as bin 0 of a flowtop run does.
func BenchmarkBinClose(b *testing.B) {
	cases := []struct {
		name     string
		flows    int
		workers  int
		rate     float64
		inverter invert.Estimator
		tables   flowtable.Spec
		dense    int // flows of an untimed bin closed before the timed ones
		packets  func(f int) int
	}{
		{"batch-exact", 280_000, 1, 0.01, nil, flowtable.Spec{}, 0, func(f int) int {
			if f%512 == 0 {
				return 1 + f/512
			}
			return 1
		}},
		{"adapt-loop", 47_000, 2, 0.1, countsOnly{}, flowtable.Spec{}, 0, func(f int) int {
			n := 1 + f*7919%19
			if f%512 == 0 {
				n += f / 512
			}
			return n
		}},
		{"sparse-after-dense", 10, 2, 0.01, countsOnly{}, flowtable.Spec{Kind: flowtable.KindCountMin, Slots: 4096}, 100_000,
			func(int) int { return 100 }},
	}
	for _, c := range cases {
		newEngine := func(b *testing.B) *Engine {
			eng, err := NewEngine(Config{
				Agg:        flow.FiveTuple{},
				Sampler:    sampler.NewBernoulli(c.rate, 7),
				BinSeconds: 60,
				TopT:       10,
				Workers:    c.workers,
				Inverter:   c.inverter,
				Tables:     c.tables,
				Recycle:    true,
			}, func(BinResult) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			return eng
		}
		feed := func(b *testing.B, eng *Engine, flows int, packets func(int) int) {
			for f := 0; f < flows; f++ {
				p := packet.Packet{Time: 1, Size: 100, Key: flow.Key{
					Src: flow.Addr{10, byte(f >> 16), byte(f >> 8), byte(f)}, DstPort: 80, Proto: flow.ProtoTCP,
				}}
				for n := packets(f); n > 0; n-- {
					if err := eng.Feed(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			settle(eng)
		}
		fill := func(b *testing.B, eng *Engine) { feed(b, eng, c.flows, c.packets) }
		// grow closes the untimed dense bin, if the case has one.
		grow := func(b *testing.B, eng *Engine) {
			if c.dense > 0 {
				feed(b, eng, c.dense, func(int) int { return 1 })
				if err := eng.flushBin(); err != nil {
					b.Fatal(err)
				}
			}
		}
		timeClose := func(b *testing.B, eng *Engine) {
			b.StartTimer()
			if err := eng.flushBin(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		}
		report := func(b *testing.B) {
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/float64(c.flows), "ns/flow")
			b.ReportMetric(ns, "ns/bin")
		}
		b.Run("warm/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.StopTimer()
			eng := newEngine(b)
			defer eng.Close()
			grow(b, eng)
			fill(b, eng) // an untimed bin sizes the close's buffers
			if err := eng.flushBin(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				fill(b, eng)
				timeClose(b, eng)
			}
			report(b)
		})
		b.Run("first/"+c.name, func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				debug.FreeOSMemory()
				eng := newEngine(b)
				grow(b, eng)
				fill(b, eng)
				timeClose(b, eng)
				eng.Close()
			}
			report(b)
		})
	}
}

// settle returns once every shard worker has ingested the batches handed
// to it so far. A worker takes a message only after finishing the one
// before, so once cap(in)+2 empty batches are sent behind the real ones,
// the real ones are done; the empty ones left queued cost the flush
// nothing. They are allocated here, untimed: the workers hand them on to
// the reader's free list, where a zero batch would make the next dispatch
// allocate.
func settle(e *Engine) {
	for _, s := range e.shards {
		for range cap(s.in) + 2 {
			s.in <- shardMsg{batch: e.newBatch()}
		}
	}
}

// countsOnly is an inverter that takes the bin's sampled counts and
// returns at once.
type countsOnly struct{}

// errCountsOnly is countsOnly's answer: made once, so the inverter
// allocates nothing.
var errCountsOnly = errors.New("counts only")

func (countsOnly) Name() string { return "counts-only" }

func (countsOnly) Invert([]float64, float64) (invert.Estimate, error) {
	return invert.Estimate{}, errCountsOnly
}

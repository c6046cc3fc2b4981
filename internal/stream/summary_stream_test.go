package stream

import (
	"fmt"
	"slices"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/metrics"
	"flowrank/internal/packet"
	"flowrank/internal/sampler"
)

// copyBin deep-copies a BinResult so it can be retained past emit when
// the engine recycles its buffers.
func copyBin(b BinResult) BinResult {
	out := b
	out.OrigTop = append([]flowtable.Entry(nil), b.OrigTop...)
	out.SampledTop = append([]flowtable.Entry(nil), b.SampledTop...)
	return out
}

// TestEngineTableKindsExactInvariance: the open-addressing table and the
// map reference must produce bit-identical bin streams for any worker
// count and batch size, with CountErr always 0.
func TestEngineTableKindsExactInvariance(t *testing.T) {
	pkts := makePackets(t, 15, 150, 17)
	base := func(spec flowtable.Spec) Config {
		return Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(0.2, 23),
			BinSeconds: 5,
			TopT:       10,
			Workers:    1,
			Tables:     spec,
		}
	}
	want := runEngine(t, base(flowtable.Spec{Kind: flowtable.KindMap}), pkts)
	if len(want) < 3 {
		t.Fatalf("degenerate trace: only %d bins", len(want))
	}
	for _, b := range want {
		if b.CountErr != 0 {
			t.Fatalf("bin %d: exact table reports CountErr %d", b.Bin, b.CountErr)
		}
	}
	specs := []flowtable.Spec{
		{},                          // zero spec = flat, default pre-size
		{Kind: flowtable.KindExact}, // explicit flat
		{Kind: flowtable.KindExact, Slots: 10000}, // pre-sized flat
		{Kind: flowtable.KindMap},
	}
	for _, spec := range specs {
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, 7, 512, 2047, 2048} {
				cfg := base(spec)
				cfg.Workers = workers
				cfg.batchSize = batch
				got := runEngine(t, cfg, pkts)
				compareBins(t, fmt.Sprintf("spec=%v workers=%d batch=%d", spec, workers, batch), got, want)
			}
		}
	}
}

// TestEngineRecycleMatches: buffer recycling must not change any bin's
// content — only its lifetime. Each recycled bin, deep-copied inside
// emit, must equal the retained bin of the non-recycling run.
func TestEngineRecycleMatches(t *testing.T) {
	pkts := makePackets(t, 15, 150, 19)
	for _, spec := range []flowtable.Spec{{}, {Kind: flowtable.KindSpaceSaving, Slots: 64}} {
		for _, workers := range []int{1, 4} {
			// The sampler is a stateful PRNG: every run needs a fresh one.
			mkCfg := func() Config {
				return Config{
					Agg:        flow.FiveTuple{},
					Sampler:    sampler.NewBernoulli(0.3, 31),
					BinSeconds: 5,
					TopT:       10,
					Workers:    workers,
					Tables:     spec,
				}
			}
			want := runEngine(t, mkCfg(), pkts)
			cfg := mkCfg()
			cfg.Recycle = true
			var got []BinResult
			eng, err := NewEngine(cfg, func(b BinResult) error {
				got = append(got, copyBin(b))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				if err := eng.Feed(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			compareBins(t, fmt.Sprintf("spec=%v workers=%d recycle", spec, workers), got, want)
		}
	}
}

// TestEngineBoundedDeterminism: for a fixed worker count and input, the
// bounded summaries are fully deterministic — two runs produce identical
// bin streams. (Across worker counts the original side is identical, and
// the sampled side is promised only its error bound: the shard partition
// is part of a sketch's input. TestEngineBoundedErrorBound checks both.)
func TestEngineBoundedDeterminism(t *testing.T) {
	pkts := makePackets(t, 15, 150, 37)
	for _, kind := range []flowtable.Kind{flowtable.KindSpaceSaving, flowtable.KindCountMin} {
		for _, workers := range []int{1, 4} {
			mkCfg := func() Config {
				return Config{
					Agg:        flow.FiveTuple{},
					Sampler:    sampler.NewBernoulli(0.5, 41),
					BinSeconds: 5,
					TopT:       10,
					Workers:    workers,
					Tables:     flowtable.Spec{Kind: kind, Slots: 32},
				}
			}
			a := runEngine(t, mkCfg(), pkts)
			b := runEngine(t, mkCfg(), pkts)
			compareBins(t, fmt.Sprintf("kind=%v workers=%d rerun", kind, workers), a, b)
			if len(a) < 2 {
				t.Fatalf("kind=%v: degenerate trace: %d bins", kind, len(a))
			}
		}
	}
}

// TestEngineBoundedErrorBound: every count a bounded summary reports in a
// bin's sampled top list must bracket the exact count from above within
// the bin's CountErr — across worker counts, where bit-identity of the
// sampled side is not promised — while the totals stay exact, and the
// original side (Flows, OrigTop, the original totals) is the exact run's
// at every worker count: a bounded -table bounds the sampled table only.
func TestEngineBoundedErrorBound(t *testing.T) {
	pkts := makePackets(t, 15, 200, 43)
	base := func(spec flowtable.Spec, workers int) Config {
		return Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(0.5, 47),
			BinSeconds: 5,
			TopT:       10,
			Workers:    workers,
			Tables:     spec,
		}
	}
	exact := runEngine(t, base(flowtable.Spec{}, 1), pkts)
	exactSampled := referenceSampledCounts(pkts, flow.FiveTuple{}, sampler.NewBernoulli(0.5, 47), 5, flowtable.Spec{}, 1)
	if len(exactSampled) != len(exact) {
		t.Fatalf("reference has %d bins, engine %d", len(exactSampled), len(exact))
	}
	for _, kind := range []flowtable.Kind{flowtable.KindSpaceSaving, flowtable.KindCountMin} {
		for _, workers := range []int{1, 2, 3, 4} {
			got := runEngine(t, base(flowtable.Spec{Kind: kind, Slots: 48}, workers), pkts)
			if len(got) != len(exact) {
				t.Fatalf("kind=%v workers=%d: %d bins, want %d", kind, workers, len(got), len(exact))
			}
			pressured := 0
			for i, b := range got {
				if b.OrigPackets != exact[i].OrigPackets || b.SampledPackets != exact[i].SampledPackets ||
					b.OrigBytes != exact[i].OrigBytes || b.SampledBytes != exact[i].SampledBytes {
					t.Fatalf("kind=%v workers=%d bin %d: totals diverge from exact", kind, workers, b.Bin)
				}
				if b.Flows != exact[i].Flows || !slices.Equal(b.OrigTop, exact[i].OrigTop) {
					t.Fatalf("kind=%v workers=%d bin %d: %d flows, top %v; exact run %d flows, top %v",
						kind, workers, b.Bin, b.Flows, b.OrigTop, exact[i].Flows, exact[i].OrigTop)
				}
				if b.CountErr > 0 {
					pressured++
				}
				for _, e := range b.SampledTop {
					if tr := exactSampled[i][e.Key]; e.Packets < tr || e.Packets > tr+b.CountErr {
						t.Fatalf("kind=%v workers=%d bin %d sampled top: estimate %d outside [%d, %d]",
							kind, workers, b.Bin, e.Packets, tr, tr+b.CountErr)
					}
				}
			}
			if pressured == 0 {
				// The tiny slot budget must have evicted in at least one
				// bin, or the bound checks above are vacuous.
				t.Fatalf("kind=%v workers=%d: no bin under memory pressure", kind, workers)
			}
		}
	}
}

// referenceSampledCounts is the sampled side of the engine's bins, built
// without the engine: per non-empty bin, the packet counts of workers
// sequential tables of spec's kind — the exact kinds as the map reference —
// each fed in trace order the sampled packets whose key falls in its shard,
// merged into one map.
func referenceSampledCounts(pkts []packet.Packet, agg flow.Aggregator, smp sampler.Sampler, binSec float64, spec flowtable.Spec, workers int) []map[flow.Key]int64 {
	tables := make([]flowtable.Summary, workers)
	for i := range tables {
		if spec.Exact() {
			tables[i] = flowtable.New(agg)
		} else {
			tables[i], _ = spec.New(agg)
		}
	}
	var out []map[flow.Key]int64
	binIdx, binPackets := int64(0), 0
	flush := func() {
		if binPackets > 0 {
			m := map[flow.Key]int64{}
			for _, tab := range tables {
				m = tab.AppendCounts(m)
				tab.Reset()
			}
			out = append(out, m)
		}
		binIdx, binPackets = binIdx+1, 0
	}
	for _, p := range pkts {
		for p.Time >= float64(binIdx+1)*binSec {
			flush()
		}
		binPackets++
		if smp.Sample(p) {
			key := agg.Aggregate(p.Key)
			tables[key.FastHash()%uint64(workers)].AddAggregated(key, p.Time, int64(p.Size))
		}
	}
	flush()
	return out
}

// TestEnginePairsMatchMapReference pins the shard-side scoring: for every
// table kind, worker count and batch size, each bin's Pairs must equal the
// map form of the pair count over the original and sampled counts a
// sequential reference holds — every original flow scored against its own
// sampled count, found in its own shard — and Flows and SampledFlows must
// be that reference's flow counts. With a rate-1 sampler and the exact
// spec the reference holds the original tables, which are exact for every
// kind.
func TestEnginePairsMatchMapReference(t *testing.T) {
	pkts := makePackets(t, 15, 150, 61)
	const binSec, topT, rate = 5.0, 10, 0.3
	for _, kind := range []flowtable.Kind{flowtable.KindExact, flowtable.KindMap, flowtable.KindSpaceSaving, flowtable.KindCountMin} {
		spec := flowtable.Spec{Kind: kind}
		if !spec.Exact() {
			spec.Slots = 48
		}
		for _, workers := range []int{1, 3} {
			want := referenceSampledCounts(pkts, flow.FiveTuple{}, sampler.NewBernoulli(rate, 67), binSec, spec, workers)
			orig := referenceSampledCounts(pkts, flow.FiveTuple{}, sampler.NewBernoulli(1, 67), binSec, flowtable.Spec{}, workers)
			for _, batch := range []int{7, 2048} {
				label := fmt.Sprintf("spec=%v workers=%d batch=%d", spec, workers, batch)
				got := runEngine(t, Config{
					Agg:        flow.FiveTuple{},
					Sampler:    sampler.NewBernoulli(rate, 67),
					BinSeconds: binSec,
					TopT:       topT,
					Workers:    workers,
					batchSize:  batch,
					Tables:     spec,
				}, pkts)
				if len(got) != len(want) || len(got) < 3 {
					t.Fatalf("%s: %d bins, reference %d", label, len(got), len(want))
				}
				for i, b := range got {
					if b.SampledFlows != len(want[i]) {
						t.Fatalf("%s bin %d: SampledFlows %d, reference %d", label, b.Bin, b.SampledFlows, len(want[i]))
					}
					if b.Flows != len(orig[i]) {
						t.Fatalf("%s bin %d: Flows %d, reference %d", label, b.Bin, b.Flows, len(orig[i]))
					}
					var flows []flowtable.Entry
					for k, n := range orig[i] {
						flows = append(flows, flowtable.Entry{Key: k, Packets: n})
					}
					if ref := metrics.CountSwapped(flowtable.SortEntries(flows), want[i], topT); b.Pairs != ref {
						t.Fatalf("%s bin %d: Pairs %+v, map reference %+v", label, b.Bin, b.Pairs, ref)
					}
				}
			}
		}
	}
}

// TestEngineSpaceSavingExactWhenUnderBudget: with a slot budget no shard
// ever fills, Space-Saving never evicts and is exact — its bin stream
// must be bit-identical to the exact table's (packet counts, ordering,
// CountErr 0). This pins the takeover path as the only source of error.
func TestEngineSpaceSavingExactWhenUnderBudget(t *testing.T) {
	pkts := makePackets(t, 15, 120, 53)
	for _, workers := range []int{1, 4} {
		mkCfg := func() Config {
			return Config{
				Agg:        flow.FiveTuple{},
				Sampler:    sampler.NewBernoulli(0.4, 59),
				BinSeconds: 5,
				TopT:       10,
				Workers:    workers,
			}
		}
		want := runEngine(t, mkCfg(), pkts)
		for _, b := range want {
			if b.Flows > 50000 {
				t.Fatalf("trace too large for the under-budget premise: %d flows", b.Flows)
			}
		}
		cfg := mkCfg()
		cfg.Tables = flowtable.Spec{Kind: flowtable.KindSpaceSaving, Slots: 1 << 16}
		got := runEngine(t, cfg, pkts)
		// Byte/First/Last bookkeeping matches too, so DeepEqual applies.
		compareBins(t, fmt.Sprintf("workers=%d under-budget", workers), got, want)
	}
}

func TestEngineRejectsBadTableSpec(t *testing.T) {
	emit := func(BinResult) error { return nil }
	bad := []flowtable.Spec{
		{Kind: flowtable.Kind(99)},
		{Slots: -1},
	}
	for _, spec := range bad {
		_, err := NewEngine(Config{
			Agg:        flow.FiveTuple{},
			Sampler:    sampler.NewBernoulli(1, 1),
			BinSeconds: 1,
			Tables:     spec,
		}, emit)
		if err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

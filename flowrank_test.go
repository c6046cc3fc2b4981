package flowrank

import (
	"fmt"
	"math"
	"testing"

	"flowrank/internal/randx"
)

// genTrace synthesizes the flow-level trace of a preset at a test-sized
// arrival rate (flows/s; the presets' own rates are the paper's).
func genTrace(tb testing.TB, cfg TraceConfig, arrivalRate float64) []FlowRecord {
	tb.Helper()
	cfg.ArrivalRate = arrivalRate
	records, err := GenerateTrace(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if len(records) == 0 {
		tb.Fatal("empty trace")
	}
	return records
}

// firstBin is the first measurement bin of the i-th simulated rate.
func firstBin(res *SimResult, i int) *BinStat {
	var series RateSeries = res.Series[i]
	return &series.Bins[0]
}

// TestQuickstartWorkflow exercises the full public API surface the way the
// README's quickstart does.
func TestQuickstartWorkflow(t *testing.T) {
	res, err := Simulate(SimConfig{
		Records:    genTrace(t, SprintFiveTuple(60, 7), 200),
		BinSeconds: 60,
		Horizon:    60,
		TopT:       10,
		Rates:      []float64{0.01, 0.5},
		Runs:       5,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	low := firstBin(res, 0).Ranking.Mean()
	high := firstBin(res, 1).Ranking.Mean()
	if high >= low {
		t.Errorf("p=50%% (%g) should beat p=1%% (%g)", high, low)
	}
}

func TestModelFacade(t *testing.T) {
	m := Model{N: 100000, T: 10, Dist: ParetoWithMean(9.6, 1.5)}
	r := m.RankingMetric(0.1)
	d := m.DetectionMetric(0.1)
	if d >= r {
		t.Errorf("detection %g should be below ranking %g", d, r)
	}
	// Closer sizes need a higher rate to keep the same misranking
	// probability (internal/core TestOptimalRateHitsTarget checks the
	// probability at the returned rate).
	const method RateMethod = RateExact
	near, err := OptimalRate(190, 200, 1e-3, method)
	if err != nil {
		t.Fatal(err)
	}
	far, err := OptimalRate(100, 200, 1e-3, method)
	if err != nil {
		t.Fatal(err)
	}
	if !(0 < far && far < near && near <= 1) {
		t.Errorf("optimal rates: %g for 190 vs 200, %g for 100 vs 200", near, far)
	}
}

func TestPacketPathFacade(t *testing.T) {
	records := genTrace(t, SprintFiveTuple(10, 3), 100)
	tab := NewFlowTable(FiveTuple{})
	smp := NewBernoulli(0.5, 4)
	var total, kept int
	err := StreamPackets(records, 5, func(p Packet) error {
		total++
		if smp.Sample(p) {
			kept++
			tab.Add(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || kept == 0 {
		t.Fatal("no packets streamed")
	}
	ratio := float64(kept) / float64(total)
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("kept %g of packets at p=0.5", ratio)
	}
	top := tab.Top(5)
	if len(top) != 5 {
		t.Fatalf("Top(5) returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Packets > top[i-1].Packets {
			t.Error("top list not sorted")
		}
	}
}

func TestBoundedTablesFacade(t *testing.T) {
	// Every table kind behind the shared FlowSummary surface.
	sums := []FlowSummary{
		NewFlatFlowTable(FiveTuple{}, 64),
		NewSpaceSavingTable(FiveTuple{}, 8),
		NewCountMinTable(FiveTuple{}, 8),
	}
	key := Key{Src: Addr{1, 2, 3, 4}, Proto: ProtoTCP}
	for i, s := range sums {
		s.AddAggregated(key, 1.5, 100)
		s.AddAggregated(key, 2, 60)
		if s.TotalPackets() != 2 || s.TotalBytes() != 160 || s.Len() != 1 {
			t.Errorf("summary %d: totals %d/%d/%d", i, s.TotalPackets(), s.TotalBytes(), s.Len())
		}
		top := s.AppendTop(nil, 1)
		if len(top) != 1 || top[0].Key != key {
			t.Errorf("summary %d: top %+v", i, top)
		}
		// What each kind has beyond the shared surface.
		switch tab := s.(type) {
		case *FlatFlowTable:
			if all := tab.Entries(); len(all) != 1 || all[0].Packets != 2 {
				t.Errorf("exact table entries %+v", all)
			}
		case *SpaceSavingTable:
			if tab.ErrorBound() != 0 { // a takeover would have left an error term
				t.Errorf("Space-Saving under capacity: error bound %d", tab.ErrorBound())
			}
		case *CountMinTable:
			if got := tab.Estimate(key); got != 2 {
				t.Errorf("Count-Min estimate %d, want 2", got)
			}
		}
	}

	// The spec path drives the streaming engine with a bounded table
	// (the /24 workload under the /24 flow definition).
	spec, err := ParseTableSpec("spacesaving", 32)
	if err != nil {
		t.Fatal(err)
	}
	if spec == (TableSpec{}) {
		t.Fatal("spacesaving parsed to the zero spec, which selects the exact table")
	}
	var agg Aggregator = DstPrefix{Bits: 24}
	bins := 0
	err = StreamRank(genTrace(t, SprintPrefix24(10, 3), 100), 5, StreamConfig{
		Agg:        agg,
		Sampler:    NewBernoulli(0.5, 4),
		BinSeconds: 5,
		TopT:       5,
		Workers:    2,
		Tables:     spec,
	}, func(b StreamBin) error {
		bins++
		if len(b.SampledTop) > 5 || b.CountErr < 0 {
			return fmt.Errorf("bin %d: %d top flows, CountErr %d", b.Bin, len(b.SampledTop), b.CountErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bins == 0 {
		t.Fatal("no bins emitted")
	}
}

func TestAggregationFacade(t *testing.T) {
	k := Key{Src: Addr{1, 2, 3, 4}, Dst: Addr{10, 20, 30, 40}, SrcPort: 99, DstPort: 80, Proto: ProtoTCP}
	agg := DstPrefix{Bits: 24}
	got := agg.Aggregate(k)
	if got.Dst != (Addr{10, 20, 30, 0}) {
		t.Errorf("aggregated to %v", got)
	}
	// The 5-tuple keeps protocols apart; the prefix definition merges them.
	udp := k
	udp.Proto = ProtoUDP
	if (FiveTuple{}).Aggregate(udp) == (FiveTuple{}).Aggregate(k) || agg.Aggregate(udp) != got {
		t.Errorf("tcp/udp twins: 5-tuple %v, prefix %v", FiveTuple{}.Aggregate(udp), agg.Aggregate(udp))
	}
}

func TestExtensionsFacade(t *testing.T) {
	// Sequence estimator.
	var e *SizeEstimator = NewSizeEstimator(0.5)
	key := Key{Src: Addr{9, 9, 9, 9}, Proto: ProtoTCP}
	e.Observe(key, 1000, 100)
	e.Observe(key, 5000, 100)
	if est, ok := e.EstimateBytes(key); !ok || est <= 0 {
		t.Errorf("estimate %g ok=%v", est, ok)
	}
}

func TestDistributionFacade(t *testing.T) {
	// The facade's one size law, by its parameters and by its mean; the
	// other laws and the mixture are internal/dist's and tested there.
	for _, d := range []Pareto{ParetoWithMean(9.6, 1.5), {Scale: 3.2, Shape: 1.5}} {
		u := 0.05
		if got := d.CCDF(d.QuantileCCDF(u)); math.Abs(got-u) > 1e-9 {
			t.Errorf("%s: CCDF(QuantileCCDF(%g)) = %g", d, u, got)
		}
		if m := d.Mean(); math.Abs(m-9.6) > 1e-9 {
			t.Errorf("%s: mean %g, want 9.6", d, m)
		}
	}
}

func TestMetricsFacade(t *testing.T) {
	entries := []FlowEntry{
		{Key: Key{SrcPort: 1}, Packets: 100},
		{Key: Key{SrcPort: 2}, Packets: 50},
		{Key: Key{SrcPort: 3}, Packets: 10},
	}
	SortEntries(entries)
	sampled := map[Key]int64{
		{SrcPort: 1}: 2, {SrcPort: 2}: 5, {SrcPort: 3}: 1,
	}
	// The top flow is under-sampled against the second, not the third: one
	// of the two pairs it heads — both straddle the top-1 boundary — swaps.
	want := PairCounts{Ranking: 1, Detection: 1, Pairs: 2, BoundaryPairs: 2}
	if pc := CountSwapped(entries, sampled, 1); pc != want {
		t.Errorf("CountSwapped = %+v, want %+v", pc, want)
	}
}

// TestStreamFacade runs the sharded streaming monitor through the public
// facade and checks the bins against the packet stream it consumed, plus
// the worker-count invariance contract.
func TestStreamFacade(t *testing.T) {
	records := genTrace(t, SprintFiveTuple(10, 31), 120)
	var total int64
	if err := StreamPackets(records, 8, func(Packet) error { total++; return nil }); err != nil {
		t.Fatal(err)
	}
	collect := func(workers int) []StreamBin {
		var bins []StreamBin
		err := StreamRank(records, 8, StreamConfig{
			Agg:        FiveTuple{},
			Sampler:    NewBernoulli(0.2, 3),
			BinSeconds: 2.5,
			TopT:       5,
			Workers:    workers,
		}, func(b StreamBin) error {
			bins = append(bins, b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return bins
	}
	seq := collect(1)
	shard := collect(4)
	if len(seq) == 0 {
		t.Fatal("no bins emitted")
	}
	var binned int64
	for _, b := range seq {
		binned += b.OrigPackets
		if len(b.SampledTop) > 5 {
			t.Fatalf("bin %d: top list has %d entries", b.Bin, len(b.SampledTop))
		}
		if b.Pairs.RankingFrac() < 0 || b.Pairs.RankingFrac() > 1 {
			t.Fatalf("bin %d: ranking fraction %g", b.Bin, b.Pairs.RankingFrac())
		}
	}
	if binned != total {
		t.Fatalf("bins account %d packets, stream had %d", binned, total)
	}
	if len(seq) != len(shard) {
		t.Fatalf("worker counts disagree: %d vs %d bins", len(seq), len(shard))
	}
	for i := range seq {
		if seq[i].Bin != shard[i].Bin || seq[i].Pairs != shard[i].Pairs ||
			seq[i].OrigPackets != shard[i].OrigPackets {
			t.Fatalf("bin %d diverges across worker counts", seq[i].Bin)
		}
	}
}

// TestInversionFacade: the inverters are usable end to end through the
// facade — sample a known law, invert the observed counts, and hand the
// estimate to the adaptive controller. How close each estimate comes to
// the truth is internal/invert's to check (TestEMImprovesKSAcrossLaws).
func TestInversionFacade(t *testing.T) {
	d := ParetoWithMean(9.6, 1.5)
	g := randx.New(33)
	const n, p = 8000, 0.1
	var counts []float64
	for i := 0; i < n; i++ {
		s := math.Max(1, math.Round(d.Rand(g)))
		if k := g.Binomial(int(s), p); k > 0 {
			counts = append(counts, float64(k))
		}
	}
	ests := map[string]Inversion{}
	for _, inv := range []Inverter{NaiveInverter{}, TailInverter{}, ParametricInverter{}, EMInverter{}} {
		est, err := inv.Invert(counts, p)
		if err != nil {
			t.Fatalf("%s: %v", inv.Name(), err)
		}
		if est.Method != inv.Name() || !(est.Mean > 0) || est.Dist == nil {
			t.Fatalf("%s: degenerate estimate %+v", inv.Name(), est)
		}
		ests[est.Method] = est
	}
	// The adaptive controller consumes an inversion of the same sampled
	// counts: a bin observed at p in, the cheapest rate meeting the target
	// out.
	rate, fitted, err := Controller{Target: 1, TopT: 10, Workers: 1}.RecommendEstimate(ests["parametric"])
	if err != nil || !(rate > 0 && rate <= 1) || fitted.N < len(counts) {
		t.Errorf("RecommendEstimate = rate %g over N=%d fitted flows (%d sampled), err %v", rate, fitted.N, len(counts), err)
	}
}

// networkWorkload routes a small Sprint-like workload over the topology.
func networkWorkload(tb testing.TB, topo *Topology) []RoutedFlow {
	tb.Helper()
	cfg := SprintFiveTuple(10, 3)
	cfg.ArrivalRate = 150
	flows, err := GenerateNetworkWorkload(topo, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return flows
}

// budgetedDemand probe-samples the routed workload at 10% and budgets
// every switch at 2% of its offered load. EM estimates: the Discrete
// outputs evaluate fastest under the allocators' model scoring (spliced
// tail mixtures cost ~50x here).
func budgetedDemand(tb testing.TB, topo *Topology, flows []RoutedFlow) *NetworkDemand {
	tb.Helper()
	demand, err := ObserveNetwork(topo, flows, 0.1, EMInverter{}, 10, 4)
	if err != nil {
		tb.Fatal(err)
	}
	budgets := map[string]float64{}
	for sw, load := range NetworkOfferedLoads(demand) {
		budgets[sw] = 0.02 * load
	}
	if err := topo.SetBudgets(budgets); err != nil {
		tb.Fatal(err)
	}
	return demand
}

// overBudget lists the switches whose expected sampled load under the
// allocation exceeds their budget.
func overBudget(topo *Topology, d *NetworkDemand, a *Allocation) []NetworkSwitch {
	var over []NetworkSwitch
	for id, used := range a.ExpectedSampled(d) {
		if sw, _ := topo.Switch(id); used > sw.Budget*(1+1e-9) {
			over = append(over, sw)
		}
	}
	return over
}

// TestNetworkFacade drives the network-wide coordination layer end to end
// through the public API: fat-tree topology, routed workload, probe
// observation, all three allocators, and the simulated network ranking —
// with the coordinated allocation beating the uniform baseline.
func TestNetworkFacade(t *testing.T) {
	topo := FatTreeTopology(1)
	flows := networkWorkload(t, topo)
	demand := budgetedDemand(t, topo, flows)
	demand.Workers = 1
	// The demand describes the fabric it was observed on: every link row
	// is a topology link with an inverted size law, every path row a route
	// over such links.
	fabric := map[string]bool{}
	for _, l := range topo.Links() {
		fabric[l.ID()] = true
	}
	observed := func(ls LinkState) bool { return fabric[ls.Link] && ls.Dist != nil && ls.Flows > 0 }
	routed := func(ps PathStat) bool {
		for i := 1; i < len(ps.Switches); i++ {
			if !fabric[NetworkLink{From: ps.Switches[i-1], To: ps.Switches[i]}.ID()] {
				return false
			}
		}
		return ps.Flows > 0
	}
	for _, ls := range demand.Links {
		if !observed(ls) {
			t.Errorf("link row %+v is not an observed topology link", ls)
		}
	}
	for _, ps := range demand.Paths {
		if !routed(ps) {
			t.Errorf("path row %+v is not a route of the topology", ps)
		}
	}
	results := map[string]*NetworkResult{}
	for _, alloc := range []Allocator{UniformAllocator{}, WaterfillAllocator{}, CoordinatedAllocator{}} {
		a, err := AllocateRates(demand, alloc)
		if err != nil {
			t.Fatalf("%s: %v", alloc.Name(), err)
		}
		if over := overBudget(topo, demand, a); len(over) > 0 {
			t.Errorf("%s: switches over budget: %+v", alloc.Name(), over)
		}
		res, err := NetworkRank(topo, flows, a, 10, 2, 5)
		if err != nil {
			t.Fatalf("%s: %v", alloc.Name(), err)
		}
		results[alloc.Name()] = res
	}
	if u, c := results["uniform"].RankFrac, results["coordinated"].RankFrac; !(c < u) {
		t.Errorf("coordinated fraction %g not below uniform %g", c, u)
	}
	if results["coordinated"].TopK < results["uniform"].TopK {
		t.Errorf("coordinated top-k %g below uniform %g",
			results["coordinated"].TopK, results["uniform"].TopK)
	}
}

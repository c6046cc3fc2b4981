package netsample

import (
	"math"
	"reflect"
	"testing"

	"flowrank/internal/invert"
	"flowrank/internal/tracegen"
)

// TestEnsureViewTracksMutation pins the fingerprint invalidation: the
// memoized view must follow a mutation of Demand.Paths instead of
// serving the stale aggregate (the pre-fix behavior).
func TestEnsureViewTracksMutation(t *testing.T) {
	topo := FatTree(1000)
	flows := workload(t, topo, 11)
	d, err := TrueDemand(topo, flows, 5)
	if err != nil {
		t.Fatal(err)
	}
	sw := Monitors(d.Paths[0].Switches)[0]
	before := OfferedLoads(d)[sw]
	d.Paths[0].Packets += 5000
	after := OfferedLoads(d)[sw]
	if math.Abs(after-before-5000) > 1e-6 {
		t.Fatalf("offered load served stale memo after mutation: before %g, after %g", before, after)
	}
}

// TestRealizedBudgetWithinBound is the satellite property test: for
// every allocator and budget level, each switch's realized sampled load
// stays within the documented envelope of its budget — the budget binds
// an expectation, so the slack is hash-partition skew (bounded here by
// 30%) plus binomial sampling noise (4 standard deviations).
func TestRealizedBudgetWithinBound(t *testing.T) {
	topo := FatTree(1000)
	flows := workload(t, topo, 13)
	allocators := []Allocator{Uniform{}, GreedyWaterfill{}, Coordinated{}}
	for _, frac := range []float64{0.01, 0.05} {
		d, err := TrueDemand(topo, flows, 5)
		if err != nil {
			t.Fatal(err)
		}
		setBudgetFraction(t, topo, d, frac)
		for _, alloc := range allocators {
			a, err := alloc.Allocate(d)
			if err != nil {
				t.Fatalf("%s at %g: %v", alloc.Name(), frac, err)
			}
			res, err := Simulate(topo, flows, a, 5, 3, 17)
			if err != nil {
				t.Fatal(err)
			}
			for sw, used := range res.SampledPerSwitch {
				b, ok := topo.Switch(sw)
				if !ok {
					t.Fatalf("unknown switch %q in result", sw)
				}
				bound := 1.3*b.Budget + 4*math.Sqrt(b.Budget)
				if used > bound {
					t.Errorf("%s at %g: switch %s sampled %.1f, budget %.1f (bound %.1f, ratio %.2f)",
						alloc.Name(), frac, sw, used, b.Budget, bound, used/b.Budget)
				}
			}
			if len(res.BudgetRatio) == 0 || res.MaxBudgetRatio <= 0 {
				t.Fatalf("%s at %g: budget compliance not reported", alloc.Name(), frac)
			}
		}
	}
}

// TestSizeAwareRatesRespectBudgets pins the size-aware re-rating: rates
// re-derived from a bin's realized owned loads keep every switch's
// realized expected load at or under budget when the traffic repeats —
// only sampling noise remains.
func TestSizeAwareRatesRespectBudgets(t *testing.T) {
	topo := FatTree(1000)
	flows := workload(t, topo, 14)
	d, err := TrueDemand(topo, flows, 5)
	if err != nil {
		t.Fatal(err)
	}
	setBudgetFraction(t, topo, d, 0.02)
	a, err := Coordinated{}.Allocate(d)
	if err != nil {
		t.Fatal(err)
	}
	a.Rates = SizeAwareRates(topo, flows, a)
	for sw, r := range a.Rates {
		if !(r > 0 && r <= 1) {
			t.Fatalf("switch %s rate %g outside (0, 1]", sw, r)
		}
	}
	res, err := Simulate(topo, flows, a, 5, 3, 18)
	if err != nil {
		t.Fatal(err)
	}
	for sw, used := range res.SampledPerSwitch {
		b, _ := topo.Switch(sw)
		// The expectation is exactly on budget; allow 4 sd of binomial noise.
		if bound := b.Budget + 4*math.Sqrt(b.Budget); used > bound {
			t.Errorf("size-aware: switch %s sampled %.1f over bound %.1f (budget %.1f)",
				sw, used, bound, b.Budget)
		}
	}
}

// controllerFor builds the shared controller of the dynamic-loop tests.
func controllerFor(topo *Topology) *Controller {
	return &Controller{
		Topo:      topo,
		Alloc:     GreedyWaterfill{},
		Estimator: invert.EM{},
		ProbeRate: 0.1,
		TopT:      5,
		Seed:      21,
		Workers:   1,
	}
}

// dynamicBins generates the churn workload the controller tests run on.
func dynamicBins(t *testing.T, topo *Topology, bins int) [][]RoutedFlow {
	t.Helper()
	base := smallConfig(15)
	out, err := GenerateDynamicWorkload(topo, tracegen.DynamicConfig{Base: base, Bins: bins, Preset: tracegen.PresetChurn})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestControllerRunDeterministicAndCached runs the dynamic control loop
// over a churning workload twice and pins identical allocations for
// identical seeds and bins labeled in order.
func TestControllerRunDeterministicAndCached(t *testing.T) {
	topo := FatTree(1000)
	bins := dynamicBins(t, topo, 3)
	d0, err := TrueDemand(topo, bins[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	setBudgetFraction(t, topo, d0, 0.05)

	run := func() []*BinResult {
		out, err := controllerFor(topo).Run(bins)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	r1, r2 := run(), run()
	if len(r1) != len(bins) {
		t.Fatalf("got %d bin results, want %d", len(r1), len(bins))
	}
	for i := range r1 {
		if r1[i].Bin != i {
			t.Fatalf("bin %d labeled %d", i, r1[i].Bin)
		}
		if !reflect.DeepEqual(r1[i].Allocation, r2[i].Allocation) {
			t.Fatalf("bin %d not deterministic: %+v vs %+v", i, r1[i].Allocation, r2[i].Allocation)
		}
	}
}

// TestControllerQuietBinReusesAllocation pins the quiet-bin contract: a
// bin with nothing to observe keeps the previous allocation instead of
// failing the loop, while a quiet first bin (no history) errors.
func TestControllerQuietBinReusesAllocation(t *testing.T) {
	topo := FatTree(1000)
	bins := dynamicBins(t, topo, 1)
	d0, err := TrueDemand(topo, bins[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	setBudgetFraction(t, topo, d0, 0.05)

	c := controllerFor(topo)
	if _, err := c.Step(nil); err == nil {
		t.Fatal("quiet first bin should error: no prior allocation to reuse")
	}
	br0, err := c.Step(bins[0])
	if err != nil {
		t.Fatal(err)
	}
	br1, err := c.Step(nil)
	if err != nil {
		t.Fatalf("quiet bin after a good one should reuse, got %v", err)
	}
	if br1.Allocation != br0.Allocation {
		t.Fatal("quiet bin built a fresh allocation instead of reusing the previous one")
	}
}

// TestControllerSizeAwareImprovesCompliance compares each bin's
// size-aware allocation with the allocator's plain one on the same
// churning workload: re-deriving rates from realized loads must not
// worsen the worst realized-vs-budget ratio, and must keep it within the
// documented envelope (previous-bin compliance is exact; one bin of churn
// plus noise is the only slack).
func TestControllerSizeAwareImprovesCompliance(t *testing.T) {
	topo := FatTree(1000)
	bins := dynamicBins(t, topo, 3)
	d0, err := TrueDemand(topo, bins[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	setBudgetFraction(t, topo, d0, 0.02)

	c := controllerFor(topo)
	out, err := c.Run(bins)
	if err != nil {
		t.Fatal(err)
	}
	// Both allocations of a bin run against the same sampling stream.
	maxRatio := func(a *Allocation, b int) float64 {
		res, err := Simulate(topo, bins[b], a, 5, 2, binSeed(c.Seed, b, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxBudgetRatio
	}
	var plain, aware float64
	// The first bin has no history, so size-aware rates only differ from
	// the second bin on.
	for b := 1; b < len(out); b++ {
		pa, err := c.Alloc.Allocate(out[b].Demand)
		if err != nil {
			t.Fatal(err)
		}
		plain = math.Max(plain, maxRatio(pa, b))
		aware = math.Max(aware, maxRatio(out[b].Allocation, b))
	}
	if aware > plain*1.05 {
		t.Errorf("size-aware rates worsened budget compliance: %.3f vs %.3f", aware, plain)
	}
	t.Logf("worst realized/budget ratio: plain %.3f, size-aware %.3f", plain, aware)
}

// TestControllerValidation exercises the configuration errors.
func TestControllerValidation(t *testing.T) {
	topo := FatTree(1000)
	good := func() *Controller { return controllerFor(topo) }
	cases := []struct {
		name   string
		mutate func(*Controller)
	}{
		{"nil topology", func(c *Controller) { c.Topo = nil }},
		{"nil allocator", func(c *Controller) { c.Alloc = nil }},
		{"nil estimator", func(c *Controller) { c.Estimator = nil }},
		{"bad probe rate", func(c *Controller) { c.ProbeRate = 1.5 }},
		{"bad top-t", func(c *Controller) { c.TopT = 0 }},
	}
	for _, tc := range cases {
		c := good()
		tc.mutate(c)
		if _, err := c.Step(nil); err == nil {
			t.Errorf("%s: Step accepted an invalid controller", tc.name)
		}
	}
	if out, err := good().Run(nil); err != nil || len(out) != 0 {
		t.Fatalf("empty Run: got %v, %v", out, err)
	}
}

// BenchmarkNetworkDynamicLoop measures one pass of the dynamic control
// plane over a churning reduced fat-tree workload: per bin, observe and
// re-allocate (every link's model curves fitted afresh, rates capped by
// the previous bin's realized loads). Budgets are 2% of each switch's
// offered load in the first bin, as probe-observed.
func BenchmarkNetworkDynamicLoop(b *testing.B) {
	topo := FatTree(1)
	cfg := tracegen.SprintFiveTuple(6, 3)
	cfg.ArrivalRate = 120
	bins, err := GenerateDynamicWorkload(topo, tracegen.DynamicConfig{Base: cfg, Bins: 2, Preset: tracegen.PresetChurn})
	if err != nil {
		b.Fatal(err)
	}
	d0, err := Observe(topo, bins[0], 0.1, invert.EM{}, 10, 4)
	if err != nil {
		b.Fatal(err)
	}
	setBudgetFraction(b, topo, d0, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl := &Controller{
			Topo:      topo,
			Alloc:     GreedyWaterfill{},
			Estimator: invert.EM{},
			ProbeRate: 0.1,
			TopT:      10,
			Seed:      uint64(i) + 1,
		}
		out, err := ctl.Run(bins)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != len(bins) {
			b.Fatal("degenerate result")
		}
	}
	b.ReportMetric(float64(len(bins)), "bins/op")
}

package netsample

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"flowrank/internal/dist"
	"flowrank/internal/randx"
	"flowrank/internal/tracegen"
)

// allAllocators is the fixed allocator roster under test.
func allAllocators() []Allocator {
	return []Allocator{Uniform{}, GreedyWaterfill{}, Coordinated{}}
}

// propDemand builds a compact fat-tree demand for the property tests;
// budgets start at the given fraction of each switch's offered load.
func propDemand(t testing.TB, seed uint64, budgetFrac float64) (*Topology, *Demand) {
	t.Helper()
	topo := FatTree(1) // placeholder budgets, set below
	cfg := tracegen.SprintFiveTuple(10, seed)
	cfg.ArrivalRate = 150
	flows, err := GenerateWorkload(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := TrueDemand(topo, flows, 10)
	if err != nil {
		t.Fatal(err)
	}
	d.Workers = 1
	setBudgetFraction(t, topo, d, budgetFrac)
	return topo, d
}

// sharedPropDemand is the fixture most property tests reuse: the model
// quality curves memoized on the demand are budget-independent, so one
// fixture serves every budget sweep at the cost of a single curve build.
// Tests run sequentially in a package, and every user sets its own
// budgets before allocating, so the shared mutable topology is safe.
var (
	sharedOnce sync.Once
	sharedTopo *Topology
	sharedD    *Demand
	sharedErr  error
)

func sharedPropDemand(t testing.TB) (*Topology, *Demand) {
	t.Helper()
	sharedOnce.Do(func() {
		topo := FatTree(1)
		cfg := tracegen.SprintFiveTuple(10, 71)
		cfg.ArrivalRate = 150
		flows, err := GenerateWorkload(topo, cfg)
		if err != nil {
			sharedErr = err
			return
		}
		d, err := TrueDemand(topo, flows, 10)
		if err != nil {
			sharedErr = err
			return
		}
		d.Workers = 1
		sharedTopo, sharedD = topo, d
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedTopo, sharedD
}

// setBudgetFraction gives every switch a budget equal to the fraction of
// its own offered (traversing) packet load — the axis the coord figure
// sweeps.
func setBudgetFraction(t testing.TB, topo *Topology, d *Demand, frac float64) {
	t.Helper()
	offered := OfferedLoads(d)
	budgets := map[string]float64{}
	for _, sw := range topo.Switches() {
		b := frac * offered[sw.ID]
		if b <= 0 {
			b = 1
		}
		budgets[sw.ID] = b
	}
	if err := topo.SetBudgets(budgets); err != nil {
		t.Fatal(err)
	}
}

// TestAllocatorsRespectBudgets: for every allocator and budget level, the
// expected sampled packets of every switch stay at or below its budget —
// the hard constraint of the rate assignment.
func TestAllocatorsRespectBudgets(t *testing.T) {
	topo, d := sharedPropDemand(t)
	setBudgetFraction(t, topo, d, 0.02)
	for _, frac := range []float64{0.01, 0.05, 0.2, 5} {
		setBudgetFraction(t, topo, d, frac)
		for _, alloc := range allAllocators() {
			a, err := alloc.Allocate(d)
			if err != nil {
				t.Fatalf("%s @%g: %v", alloc.Name(), frac, err)
			}
			for sw, used := range a.ExpectedSampled(d) {
				b, _ := topo.Switch(sw)
				if used > b.Budget*(1+1e-9) {
					t.Errorf("%s @%g: switch %s expects %.2f sampled packets, budget %.2f",
						alloc.Name(), frac, sw, used, b.Budget)
				}
			}
			for sw, r := range a.Rates {
				if !(r > 0 && r <= 1) {
					t.Errorf("%s @%g: switch %s rate %g outside (0, 1]", alloc.Name(), frac, sw, r)
				}
			}
			for key, ps := range a.Shares {
				sum := 0.0
				for _, w := range ps {
					sum += w
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s @%g: path %s shares sum to %g", alloc.Name(), frac, key, sum)
				}
			}
		}
	}
}

// TestAllocationMonotoneInBudget: growing every budget must not hurt —
// predicted quality is non-decreasing (fraction non-increasing) for every
// allocator, and the Uniform rates are elementwise non-decreasing.
func TestAllocationMonotoneInBudget(t *testing.T) {
	topo, d := sharedPropDemand(t)
	setBudgetFraction(t, topo, d, 0.01)
	fracs := []float64{0.01, 0.02, 0.05, 0.1, 0.3}
	prevPred := map[string]float64{}
	var prevUniformRates map[string]float64
	for _, frac := range fracs {
		setBudgetFraction(t, topo, d, frac)
		for _, alloc := range allAllocators() {
			a, err := alloc.Allocate(d)
			if err != nil {
				t.Fatalf("%s @%g: %v", alloc.Name(), frac, err)
			}
			if prev, ok := prevPred[alloc.Name()]; ok && a.Predicted > prev*(1+1e-9) {
				t.Errorf("%s: predicted fraction rose from %g to %g as budgets grew to %g",
					alloc.Name(), prev, a.Predicted, frac)
			}
			prevPred[alloc.Name()] = a.Predicted
			if alloc.Name() == "uniform" {
				for sw, r := range a.Rates {
					if prevUniformRates != nil && r < prevUniformRates[sw]-1e-12 {
						t.Errorf("uniform: switch %s rate fell from %g to %g as budgets grew",
							sw, prevUniformRates[sw], r)
					}
				}
				prevUniformRates = a.Rates
			}
		}
	}
}

// TestCoordinatedBeatsUniformPredicted: the Coordinated allocator's
// predicted network ranking fraction is never worse than Uniform's on the
// same demand — by construction it starts from a dominating version of
// the Uniform assignment and only keeps improvements.
func TestCoordinatedBeatsUniformPredicted(t *testing.T) {
	topo, d := sharedPropDemand(t)
	setBudgetFraction(t, topo, d, 0.02)
	for _, frac := range []float64{0.01, 0.05, 0.2} {
		setBudgetFraction(t, topo, d, frac)
		u, err := Uniform{}.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Coordinated{}.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		w, err := GreedyWaterfill{}.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		if c.Predicted > u.Predicted*(1+1e-9) {
			t.Errorf("@%g: coordinated predicted %g worse than uniform %g", frac, c.Predicted, u.Predicted)
		}
		if !(u.Predicted > 0) && frac < 0.1 {
			t.Errorf("@%g: uniform predicted fraction %g should be positive at tight budgets", frac, u.Predicted)
		}
		t.Logf("@%g: uniform %.4g, waterfill %.4g, coordinated %.4g", frac, u.Predicted, w.Predicted, c.Predicted)
	}
}

// TestAllocationOrderInvariant: permuting the Links and Paths slices of
// an equal demand must produce the identical allocation — rates, shares
// and predicted score, exactly.
func TestAllocationOrderInvariant(t *testing.T) {
	_, d1 := propDemand(t, 74, 0.03)
	// A permuted twin, built fresh so nothing memoized is shared.
	_, d2 := propDemand(t, 74, 0.03)
	g := randx.New(99)
	for i := range d2.Links {
		j := g.IntN(i + 1)
		d2.Links[i], d2.Links[j] = d2.Links[j], d2.Links[i]
	}
	for i := range d2.Paths {
		j := g.IntN(i + 1)
		d2.Paths[i], d2.Paths[j] = d2.Paths[j], d2.Paths[i]
	}
	for _, alloc := range allAllocators() {
		a1, err := alloc.Allocate(d1)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := alloc.Allocate(d2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a1.Rates, a2.Rates) {
			t.Errorf("%s: rates depend on enumeration order:\n%v\nvs\n%v", alloc.Name(), a1.Rates, a2.Rates)
		}
		if !reflect.DeepEqual(a1.Shares, a2.Shares) {
			t.Errorf("%s: shares depend on enumeration order", alloc.Name())
		}
		if a1.Predicted != a2.Predicted {
			t.Errorf("%s: predicted score depends on enumeration order: %g vs %g",
				alloc.Name(), a1.Predicted, a2.Predicted)
		}
	}
}

// TestCoordinatedImprovesOnItsStart: the hill climb must never return an
// allocation scoring worse than its dominating start — Uniform's
// observation points with coordinated budget accounting.
func TestCoordinatedImprovesOnItsStart(t *testing.T) {
	topo, d := sharedPropDemand(t)
	for _, frac := range []float64{0.01, 0.02, 0.05} {
		setBudgetFraction(t, topo, d, frac)
		c, err := Coordinated{}.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		v := d.ensureView()
		uniformRates := v.budgetRates(v.offered)
		shares := v.concentratedShares(func(p PathStat) string { return bestMonitor(p, uniformRates) })
		start := d.score.networkFrac(v.budgetRates(v.owned(shares)), shares)
		if c.Predicted > start {
			t.Errorf("@%g: hill climb ended at %g, above its start %g", frac, c.Predicted, start)
		}
	}
}

// TestWaterfillRejectsUnknownMonitor: a demand whose path names a monitor
// the topology does not declare must error, not silently waterfill the
// path against Budget 0 / rate 0.
func TestWaterfillRejectsUnknownMonitor(t *testing.T) {
	topo, err := NewTopology(
		[]Switch{{ID: "a", Budget: 100}, {ID: "b", Budget: 100}},
		[]Link{{From: "a", To: "b"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	d := &Demand{
		Topo:  topo,
		Paths: []PathStat{{Switches: []string{"ghost", "b"}, Flows: 5, Packets: 50}},
		Links: []LinkState{{Link: "ghost>b", Flows: 5, Packets: 50, Dist: dist.ParetoWithMean(10, 1.5), Method: "true"}},
		TopT:  2,
	}
	d.Workers = 1
	if _, err := (GreedyWaterfill{}).Allocate(d); err == nil {
		t.Error("waterfill accepted a path monitored by an undeclared switch")
	}
}

// TestAllocatorValidation covers the demand validation shared by every
// allocator.
func TestAllocatorValidation(t *testing.T) {
	for _, alloc := range allAllocators() {
		if _, err := alloc.Allocate(nil); err == nil {
			t.Errorf("%s: nil demand accepted", alloc.Name())
		}
		if _, err := alloc.Allocate(&Demand{Topo: FatTree(1)}); err == nil {
			t.Errorf("%s: empty demand accepted", alloc.Name())
		}
	}
	_, bad := propDemand(t, 76, 0.05)
	bad.TopT = 0
	for _, alloc := range allAllocators() {
		if _, err := alloc.Allocate(bad); err == nil {
			t.Errorf("%s: zero top-t accepted", alloc.Name())
		}
	}
}

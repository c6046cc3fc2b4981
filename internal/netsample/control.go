package netsample

import (
	"fmt"
	"math"
	"sort"

	"flowrank/internal/adaptive"
	"flowrank/internal/invert"
)

// SizeAwareRates caps an allocation's per-switch sampling rates by
// realized loads: the previous bin's flows are pushed through the
// allocation's hash ownership, and each switch's rate is lowered (never
// raised) so its budget also covers the packet mass its sampler would
// actually have faced. Expected-load rates (budgetRates) treat a hash
// share s of a path as owning s of the path's packets, but the realized
// owned mass is whatever the flows hashing into the range happen to
// carry — heavy-tailed sizes make that skew macroscopic. Weighting by
// the observed per-path counts of the previous bin makes the *realized*
// per-switch sampled load track the budget, which is the compliance the
// dynamic control plane reports (Result.MaxBudgetRatio).
//
// Taking the elementwise minimum of the expected-load rate and the
// realized-load rate means the budget binds against both estimates of
// the sampler's load: compliance can only improve over the allocator's
// rates, at the cost of sampling slightly below budget on switches whose
// realized load ran ahead of expectation — exactly where the budget was
// being overspent.
func SizeAwareRates(topo *Topology, prev []RoutedFlow, a *Allocation) map[string]float64 {
	load := map[string]float64{}
	for _, f := range prev {
		pkts := float64(f.Record.Packets)
		if a.Coordinated {
			load[ownerOf(f, a.Shares[PathKey(f.Path)])] += pkts
		} else {
			for _, sw := range Monitors(f.Path) {
				load[sw] += pkts
			}
		}
	}
	rates := make(map[string]float64, len(topo.Switches()))
	for _, sw := range topo.Switches() {
		r := 1.0
		if ar, ok := a.Rates[sw.ID]; ok {
			r = ar
		}
		if l := load[sw.ID]; l > 0 {
			r = math.Min(r, math.Min(1, sw.Budget/l))
		}
		rates[sw.ID] = r
	}
	return rates
}

// Controller is the dynamic network control plane: the per-bin loop that
// closes the ROADMAP's "re-allocate as flow rates drift" item. Every
// measurement bin it re-runs Observe (probe-sample each link, invert the
// size distributions) and Allocate over the fresh demand — every bin's
// model curves are fitted to that bin's inversion alone — optionally
// re-deriving rates from the previous bin's realized loads (SizeAware)
// and routing every monitor's rate through the single-monitor adaptive
// controller's clamps (Adapt).
//
// The zero value is not usable; fill the required fields and call Step
// per bin or Run over a whole bin sequence. Everything is deterministic
// given Seed: bin b's probe and simulation streams are derived from
// (Seed, b) alone.
type Controller struct {
	// Topo is the budgeted topology (required).
	Topo *Topology
	// Alloc solves each bin's demand (required).
	Alloc Allocator
	// Estimator inverts each link's probe-sampled counts (required).
	Estimator invert.Estimator
	// ProbeRate is the per-link observation probe rate in (0, 1].
	ProbeRate float64
	// TopT is the per-link top-list length the operator ranks.
	TopT int
	// Runs averages each bin's simulated quality over this many sampling
	// runs (0 = 1).
	Runs int
	// Seed drives every per-bin probe and simulation stream.
	Seed uint64
	// Workers bounds the model evaluation parallelism (Demand.Workers).
	Workers int
	// SizeAware caps each bin's rates by the previous bin's realized
	// owned loads (SizeAwareRates); the first bin has no history and
	// keeps the allocator's expected-load rates.
	SizeAware bool
	// Adapt, when non-nil, unifies the network loop with the
	// single-monitor adaptive loop: each monitor's allocated rate is
	// routed through adaptive.Controller.RecommendEstimate on the
	// monitor's observed link population — a monitor whose quality
	// target is already met below its budget rate drops to the
	// recommended rate (never above the budget rate), and every rate
	// obeys the adaptive controller's [MinRate, MaxRate] clamps.
	Adapt *adaptive.Controller

	bin      int
	prev     []RoutedFlow
	lastAllo *Allocation
}

// BinResult is one control-loop step's outcome.
type BinResult struct {
	// Bin is the 0-based bin index.
	Bin int
	// Demand is the bin's observed allocator input.
	Demand *Demand
	// Allocation is the solved (and possibly size-aware re-rated,
	// adapt-clamped) assignment the bin ran under.
	Allocation *Allocation
	// Result is the bin's simulated network-wide quality, including the
	// realized budget compliance (Result.BudgetRatio/MaxBudgetRatio).
	Result *Result
}

// validate checks the controller configuration.
func (c *Controller) validate() error {
	switch {
	case c.Topo == nil:
		return fmt.Errorf("netsample: controller needs a topology")
	case c.Alloc == nil:
		return fmt.Errorf("netsample: controller needs an allocator")
	case c.Estimator == nil:
		return fmt.Errorf("netsample: controller needs an estimator")
	case !(c.ProbeRate > 0 && c.ProbeRate <= 1):
		return fmt.Errorf("netsample: controller probe rate %g outside (0, 1]", c.ProbeRate)
	case c.TopT < 1:
		return fmt.Errorf("netsample: controller top-t %d must be >= 1", c.TopT)
	}
	return nil
}

// runs resolves the per-bin run count.
func (c *Controller) runs() int {
	if c.Runs < 1 {
		return 1
	}
	return c.Runs
}

// Step observes, allocates and simulates one measurement bin, advancing
// the controller's history. A bin whose probe saw nothing on any link
// reuses the previous bin's allocation (a quiet bin is not a controller
// failure — the same contract as the adaptive loop's
// ErrEmptyObservation); a first bin with nothing to observe errors.
func (c *Controller) Step(flows []RoutedFlow) (*BinResult, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	bin := c.bin
	d, err := Observe(c.Topo, flows, c.ProbeRate, c.Estimator, c.TopT, binSeed(c.Seed, bin, 1))
	if err != nil {
		return nil, fmt.Errorf("netsample: controller bin %d: %w", bin, err)
	}
	d.Workers = c.Workers
	var a *Allocation
	if len(d.Links) == 0 {
		if c.lastAllo == nil {
			return nil, fmt.Errorf("netsample: controller bin %d observed no links and has no prior allocation", bin)
		}
		a = c.lastAllo
	} else {
		a, err = c.Alloc.Allocate(d)
		if err != nil {
			return nil, fmt.Errorf("netsample: controller bin %d: %w", bin, err)
		}
		if c.SizeAware && c.prev != nil {
			a.Rates = SizeAwareRates(c.Topo, c.prev, a)
		}
		if c.Adapt != nil {
			if err := c.adaptClamp(d, a); err != nil {
				return nil, fmt.Errorf("netsample: controller bin %d: %w", bin, err)
			}
		}
	}
	res, err := Simulate(c.Topo, flows, a, c.TopT, c.runs(), binSeed(c.Seed, bin, 2))
	if err != nil {
		return nil, fmt.Errorf("netsample: controller bin %d: %w", bin, err)
	}
	c.bin++
	c.prev = flows
	c.lastAllo = a
	return &BinResult{Bin: bin, Demand: d, Allocation: a, Result: res}, nil
}

// Run steps the controller over a whole bin sequence.
func (c *Controller) Run(bins [][]RoutedFlow) ([]*BinResult, error) {
	out := make([]*BinResult, 0, len(bins))
	for _, flows := range bins {
		br, err := c.Step(flows)
		if err != nil {
			return nil, err
		}
		out = append(out, br)
	}
	return out, nil
}

// adaptClamp routes each monitor's allocated rate through the
// single-monitor adaptive controller: the monitor's observed population
// (its links' inverted flow counts, sized by its heaviest link's law)
// yields the cheapest rate meeting the adaptive target, and the final
// rate is the cheaper of that recommendation and the budget-derived
// rate — sampling above what the quality target needs only burns budget.
// Monitors whose population is too thin to recommend on keep their
// allocated rate.
func (c *Controller) adaptClamp(d *Demand, a *Allocation) error {
	// Aggregate each monitor's observed links in canonical order.
	type monView struct {
		flows   float64
		heavy   float64
		heavyIx int
	}
	mons := map[string]*monView{}
	for i, ls := range d.Links {
		sw := ls.Link
		for j := 0; j < len(sw); j++ {
			if sw[j] == '>' {
				sw = sw[:j]
				break
			}
		}
		mv, ok := mons[sw]
		if !ok {
			mv = &monView{heavyIx: -1}
			mons[sw] = mv
		}
		mv.flows += ls.Flows
		if ls.Flows > mv.heavy {
			mv.heavy, mv.heavyIx = ls.Flows, i
		}
	}
	sws := make([]string, 0, len(a.Rates))
	for sw := range a.Rates {
		sws = append(sws, sw)
	}
	sort.Strings(sws)
	for _, sw := range sws {
		rate := a.Rates[sw]
		mv, ok := mons[sw]
		if !ok || mv.heavyIx < 0 {
			continue
		}
		heavy := d.Links[mv.heavyIx]
		est := invert.Estimate{
			Dist:      heavy.Dist,
			Mean:      heavy.Dist.Mean(),
			FlowCount: mv.flows,
			Method:    "control:" + heavy.Method,
		}
		rec, _, err := c.Adapt.RecommendEstimate(est)
		if err != nil {
			return err
		}
		if rec < rate {
			a.Rates[sw] = rec
		}
	}
	return nil
}

// binSeed derives the deterministic stream id of (seed, bin, salt)
// (splitmix64 finalizer).
func binSeed(seed uint64, bin int, salt uint64) uint64 {
	x := seed + 0x9e3779b97f4a7c15*(uint64(bin)*4+salt+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

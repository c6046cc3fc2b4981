package netsample

import (
	"fmt"
	"math"

	"flowrank/internal/invert"
	"flowrank/internal/randx"
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
// per-switch sampled load track the budget, which is the compliance
// Simulate reports (Result.MaxBudgetRatio).
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
// model curves are fitted to that bin's inversion alone — and from the
// second bin on caps the rates by the previous bin's realized loads
// (SizeAwareRates). It uses what a deployment can count — probe samples,
// link and path totals, the previous bin's realized loads — and scoring
// an allocation against the true flows is the caller's job (Simulate,
// SimulateBudgeted).
//
// The zero value is not usable; fill the required fields and call Step
// per bin or Run over a whole bin sequence. Everything is deterministic
// given Seed: bin b's probe stream is derived from (Seed, b) alone.
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
	// Seed drives every per-bin probe stream.
	Seed uint64
	// Workers bounds the model evaluation parallelism (Demand.Workers).
	Workers int

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
	// Allocation is the solved, size-aware re-rated assignment the bin
	// runs under.
	Allocation *Allocation
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

// Step observes and allocates one measurement bin, advancing the
// controller's history. A bin whose probe saw nothing on any link
// reuses the previous bin's allocation (a quiet bin is not a controller
// failure — the same contract as the monitor's adaptive loop, which keeps
// its rate on a bin it cannot invert); a first bin with nothing to observe
// errors.
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
		if c.prev != nil {
			a.Rates = SizeAwareRates(c.Topo, c.prev, a)
		}
	}
	c.bin++
	c.prev = flows
	c.lastAllo = a
	return &BinResult{Bin: bin, Demand: d, Allocation: a}, nil
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

// binSeed derives the deterministic stream id of (seed, bin, salt).
func binSeed(seed uint64, bin int, salt uint64) uint64 {
	return randx.Mix64(seed + randx.Golden*(uint64(bin)*4+salt+1))
}

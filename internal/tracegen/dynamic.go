package tracegen

import (
	"fmt"
	"math"

	"flowrank/internal/randx"
)

// Preset names a dynamic workload's drift law.
type Preset string

const (
	// PresetChurn re-draws a random fraction of the demand weights every
	// bin from a heavy-tailed law: the aggregate intensity stays steady
	// while the hot endpoint pairs — and with them the per-path demand —
	// move bin to bin. This is the adversarial case for a static
	// allocation: the paths it concentrated its budget on stop being the
	// ones that matter.
	PresetChurn Preset = "churn"
	// PresetDiurnal modulates every demand weight and the aggregate
	// arrival rate sinusoidally, each pair with its own phase — the
	// classical day/night traffic swing. Drift is smooth and
	// predictable-in-hindsight, the friendly case for re-allocation.
	PresetDiurnal Preset = "diurnal"
)

// DynamicConfig sequences a base workload over consecutive measurement
// bins whose demand drifts bin to bin. Base is the per-bin template
// (Base.Duration is one bin's length); the preset decides how the per-bin
// flow arrival intensity and the endpoint-pair demand weights evolve.
// Everything is a pure function of (Base.Seed, bin), so a dynamic
// workload is exactly reproducible and any bin can be regenerated alone.
type DynamicConfig struct {
	// Base is the single-bin template; its Duration is the bin length
	// and its Seed the root of every per-bin stream.
	Base Config
	// Bins is the number of consecutive measurement bins.
	Bins int
	// Preset selects the drift law.
	Preset Preset
}

// The presets' shapes.
const (
	// churnFrac is the per-bin probability that each demand weight
	// re-draws (churn preset).
	churnFrac = 0.4
	// diurnalPeriod is the diurnal cycle length in bins.
	diurnalPeriod = 8
	// diurnalAmplitude is the diurnal swing, in (0, 1).
	diurnalAmplitude = 0.8
)

// Validate checks the dynamic configuration (including the base template).
func (c DynamicConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.Bins < 1 {
		return fmt.Errorf("tracegen: dynamic workload needs >= 1 bin, have %d", c.Bins)
	}
	if c.Preset != PresetChurn && c.Preset != PresetDiurnal {
		return fmt.Errorf("tracegen: unknown dynamic preset %q", c.Preset)
	}
	return nil
}

// BinConfig returns bin b's trace configuration: the base template with a
// bin-derived seed (so flow identities and sizes are fresh every bin) and
// the preset's intensity profile applied to the arrival rate.
func (c DynamicConfig) BinConfig(bin int) Config {
	cfg := c.Base
	cfg.Name = fmt.Sprintf("%s-%s-bin%d", c.Base.Name, c.Preset, bin)
	cfg.Seed = mix64(c.Base.Seed, uint64(bin)+1)
	if c.Preset == PresetDiurnal {
		cfg.ArrivalRate *= 1 + diurnalAmplitude*math.Sin(2*math.Pi*float64(bin)/diurnalPeriod)
	}
	return cfg
}

// PairWeights returns the relative demand weights of n endpoint pairs in
// bin b — the per-path demand the presets drift. Weights are positive and
// unnormalized; callers draw pairs proportionally. The churn preset walks
// the weight process forward from bin 0, so weight histories are
// consistent across calls: PairWeights(b, n) agrees with every earlier
// bin's evolution.
func (c DynamicConfig) PairWeights(bin, n int) ([]float64, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if bin < 0 || bin >= c.Bins {
		return nil, fmt.Errorf("tracegen: bin %d outside [0, %d)", bin, c.Bins)
	}
	if n < 1 {
		return nil, fmt.Errorf("tracegen: need >= 1 pair, have %d", n)
	}
	w := make([]float64, n)
	switch c.Preset {
	case PresetChurn:
		// Bin 0: iid heavy-tailed weights (Pareto shape 1.1 — a few hot
		// pairs dominate, as real traffic matrices do). Bin b: each weight
		// re-draws with probability churnFrac from bin b's stream.
		g := randx.New(mix64(c.Base.Seed, 0x9a7c)).Derive(0)
		for i := range w {
			w[i] = g.Pareto(1, 1.1)
		}
		for b := 1; b <= bin; b++ {
			gb := randx.New(mix64(c.Base.Seed, 0x9a7c)).Derive(uint64(b))
			for i := range w {
				// Two draws per pair regardless of the churn decision, so
				// one pair's re-draw never shifts another pair's stream.
				redraw := gb.Bernoulli(churnFrac)
				v := gb.Pareto(1, 1.1)
				if redraw {
					w[i] = v
				}
			}
		}
	case PresetDiurnal:
		// Per-pair phases are bin-independent; only the modulation moves.
		g := randx.New(mix64(c.Base.Seed, 0xd1a5)).Derive(0)
		for i := range w {
			phase := g.Float64()
			w[i] = 1 + diurnalAmplitude*math.Sin(2*math.Pi*(float64(bin)/diurnalPeriod+phase))
		}
	}
	return w, nil
}

// mix64 folds (seed, salt) into one well-spread 64-bit stream id.
func mix64(seed, salt uint64) uint64 {
	return randx.Mix64(seed + randx.Golden*(salt+1))
}

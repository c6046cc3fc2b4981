// Package tracegen synthesizes flow-level traces with the statistics the
// paper's experiments are calibrated to. The paper itself reconstructs
// packet-level behaviour from a flow-level Sprint trace (§8.1); this
// package additionally synthesizes the flow records, using the published
// statistics of that same trace ([1], Fig. 9): flow arrival rate, mean
// flow size per flow definition, Pareto size shape, and mean duration.
//
// Three presets reproduce the paper's workloads:
//
//   - SprintFiveTuple: 2360 flows/s, Pareto sizes with mean 4.8 KB
//     (9.6 packets of 500 B), mean duration 13 s — Figs. 4, 6, 8, 12, 14.
//   - SprintPrefix24: 350 prefix flows/s, mean 16.6 KB (33.2 packets) —
//     Figs. 5, 7, 9, 13, 15.
//   - Abilene: more flows and a short-tailed (lognormal) size
//     distribution, reproducing the §8.3 validation — Fig. 16.
package tracegen

import (
	"fmt"
	"math"

	"flowrank/internal/dist"
	"flowrank/internal/flow"
	"flowrank/internal/randx"
)

// LognormalDuration is the flow duration model: it draws a flow's duration
// (seconds) lognormally, independent of the flow's size and deterministic
// given the RNG stream.
type LognormalDuration struct {
	Mu, Sigma float64
}

// LognormalDurationWithMean builds a lognormal duration model with the
// given mean and shape sigma.
func LognormalDurationWithMean(mean, sigma float64) LognormalDuration {
	return LognormalDuration{Mu: math.Log(mean) - sigma*sigma/2, Sigma: sigma}
}

// Duration draws a duration.
func (d LognormalDuration) Duration(g *randx.RNG, _ int) float64 {
	return g.Lognormal(d.Mu, d.Sigma)
}

func (d LognormalDuration) String() string {
	return fmt.Sprintf("lognormal-duration(mu=%.3g, sigma=%.3g)", d.Mu, d.Sigma)
}

// Config describes a synthetic workload.
type Config struct {
	// Name labels the workload in reports.
	Name string
	// Duration is the trace length in seconds.
	Duration float64
	// ArrivalRate is the Poisson flow arrival intensity (flows/s).
	ArrivalRate float64
	// SizeDist is the flow size distribution in packets.
	SizeDist dist.SizeDist
	// MeanPacketBytes converts packets to bytes (the paper uses 500 B).
	MeanPacketBytes int
	// Durations is the flow duration model; the zero value is unset.
	Durations LognormalDuration
	// PrefixFlows marks workloads whose flow identity is a destination
	// /24 prefix: each record gets a distinct /24 key with host bits and
	// ports zeroed, so the 5-tuple and prefix flow tables coincide.
	PrefixFlows bool
	// Seed makes the trace reproducible.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("tracegen: duration %g must be positive", c.Duration)
	case c.ArrivalRate <= 0:
		return fmt.Errorf("tracegen: arrival rate %g must be positive", c.ArrivalRate)
	case c.SizeDist == nil:
		return fmt.Errorf("tracegen: nil size distribution")
	case c.Durations == (LognormalDuration{}):
		return fmt.Errorf("tracegen: no duration model")
	case c.MeanPacketBytes <= 0:
		return fmt.Errorf("tracegen: mean packet size %d must be positive", c.MeanPacketBytes)
	}
	return nil
}

// ExpectedFlows returns the expected number of flow arrivals.
func (c Config) ExpectedFlows() int {
	return int(c.ArrivalRate * c.Duration)
}

// SprintFiveTuple is the paper's 5-tuple Sprint workload (β defaults to
// the figures' 1.5; adjust cfg.SizeDist for the β sweeps).
func SprintFiveTuple(traceSeconds float64, seed uint64) Config {
	return Config{
		Name:            "sprint-5tuple",
		Duration:        traceSeconds,
		ArrivalRate:     2360,
		SizeDist:        dist.ParetoWithMean(9.6, 1.5),
		MeanPacketBytes: 500,
		Durations:       LognormalDurationWithMean(13, 1.0),
		Seed:            seed,
	}
}

// SprintPrefix24 is the paper's /24 destination prefix Sprint workload.
func SprintPrefix24(traceSeconds float64, seed uint64) Config {
	return Config{
		Name:            "sprint-prefix24",
		Duration:        traceSeconds,
		ArrivalRate:     350,
		SizeDist:        dist.ParetoWithMean(33.2, 1.5),
		MeanPacketBytes: 500,
		Durations:       LognormalDurationWithMean(25, 1.0),
		PrefixFlows:     true,
		Seed:            seed,
	}
}

// Abilene approximates the §8.3 NLANR Abilene-I trace: a higher flow
// arrival rate (larger N) and a short-tailed size distribution, which is
// exactly the combination the paper identifies as hardest for ranking.
func Abilene(traceSeconds float64, seed uint64) Config {
	// Lognormal with sigma ~= 1.3 has all moments finite (short tail in
	// the paper's sense) while keeping a realistic size spread; the mean
	// is kept at the Sprint 5-tuple level so the comparison isolates the
	// tail shape and the flow count.
	sigma := 1.3
	mu := math.Log(9.6) - sigma*sigma/2
	return Config{
		Name:            "abilene",
		Duration:        traceSeconds,
		ArrivalRate:     4800,
		SizeDist:        dist.Lognormal{Min: 1, Mu: mu, Sigma: sigma},
		MeanPacketBytes: 500,
		Durations:       LognormalDurationWithMean(10, 1.0),
		Seed:            seed,
	}
}

// Generate synthesizes the flow-level trace: Poisson arrivals over
// [0, Duration), iid sizes and durations, and unique-enough keys. Records
// are returned in arrival order.
func Generate(cfg Config) ([]flow.Record, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]flow.Record, 0, cfg.ExpectedFlows()+16)
	err := GenerateFunc(cfg, func(r flow.Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GenerateFunc streams the synthetic records to fn in arrival order,
// stopping on the first error. It allows writing paper-scale traces to
// disk without holding them in memory.
func GenerateFunc(cfg Config, fn func(flow.Record) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	arrivals := randx.New(cfg.Seed).Derive(1)
	sizes := randx.New(cfg.Seed).Derive(2)
	durations := randx.New(cfg.Seed).Derive(3)
	keys := randx.New(cfg.Seed).Derive(4)

	t := 0.0
	idx := 0
	for {
		t += arrivals.Exponential(1 / cfg.ArrivalRate)
		if t >= cfg.Duration {
			return nil
		}
		pkts := int(math.Round(cfg.SizeDist.Rand(sizes)))
		if pkts < 1 {
			pkts = 1
		}
		rec := flow.Record{
			Key:      makeKey(cfg, keys, idx),
			Start:    t,
			Duration: cfg.Durations.Duration(durations, pkts),
			Packets:  pkts,
			Bytes:    int64(pkts) * int64(cfg.MeanPacketBytes),
		}
		if err := fn(rec); err != nil {
			return err
		}
		idx++
	}
}

// makeKey builds the flow identity for record number idx.
func makeKey(cfg Config, g *randx.RNG, idx int) flow.Key {
	if cfg.PrefixFlows {
		// A distinct /24 per record: host byte and ports zero so the
		// identity is already the aggregate.
		return flow.Key{
			Dst: flow.Addr{
				byte(16 + (idx>>16)&0x7f),
				byte(idx >> 8),
				byte(idx),
				0,
			},
		}
	}
	// Random 5-tuple. Collisions between concurrently active flows are
	// astronomically unlikely (2^48 effective key space).
	return flow.Key{
		Src: flow.Addr{
			byte(10 + g.IntN(4)), byte(g.IntN(256)), byte(g.IntN(256)), byte(1 + g.IntN(254)),
		},
		Dst: flow.Addr{
			byte(128 + g.IntN(64)), byte(g.IntN(256)), byte(g.IntN(256)), byte(1 + g.IntN(254)),
		},
		SrcPort: uint16(1024 + g.IntN(64512)),
		DstPort: wellKnownPort(g),
		Proto:   flow.ProtoTCP,
	}
}

// wellKnownPort picks a destination port with a web-heavy mix.
func wellKnownPort(g *randx.RNG) uint16 {
	switch g.IntN(10) {
	case 0, 1, 2, 3, 4:
		return 80
	case 5, 6:
		return 443
	case 7:
		return 25
	case 8:
		return 53
	default:
		return uint16(1024 + g.IntN(64512))
	}
}

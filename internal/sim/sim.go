// Package sim runs the paper's trace-driven experiments (§8): cut a trace
// into measurement bins, rank flows per bin with and without sampling, and
// measure the swapped-pairs metrics per bin, averaged with standard
// deviations over independent sampling runs.
//
// Run is the fast flow-bin path: because packets are sampled i.i.d., a flow
// contributing n packets to a bin contributes Binomial(n, p) sampled
// packets, so the experiment only needs per-flow per-bin counts — the
// placement realization is drawn once (the paper fixes one packet trace)
// and each run redraws only the thinning. RunPackets is the literal path,
// and it is the monitor's own: every packet goes through a Sampler into a
// one-worker stream.Engine, the engine flowtop and flowrankd run, so any
// sampler — periodic 1-in-N included — is validated on the code that
// ships. The two are distributionally identical under Bernoulli sampling
// (TestFastMatchesPacketPath) and the fast path is ~100x cheaper.
package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/metrics"
	"flowrank/internal/packet"
	"flowrank/internal/packetgen"
	"flowrank/internal/randx"
	"flowrank/internal/sampler"
	"flowrank/internal/stream"
)

// Config describes a trace-driven experiment.
type Config struct {
	// Records is the flow-level trace.
	Records []flow.Record
	// Agg maps record keys to ranked flow identities (default 5-tuple).
	Agg flow.Aggregator
	// BinSeconds is the measurement-interval length (the paper uses 60
	// and 300 seconds).
	BinSeconds float64
	// Horizon is the trace duration; bins cover [0, Horizon).
	Horizon float64
	// TopT is the number of top flows of interest.
	TopT int
	// Rates are the packet sampling probabilities to evaluate.
	Rates []float64
	// Runs is the number of independent sampling runs per rate (the
	// paper uses 30).
	Runs int
	// Seed makes the whole experiment reproducible.
	Seed uint64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
}

// Validate checks the configuration. The comparisons are negated so that a
// NaN fails them too.
func (c Config) Validate() error {
	switch {
	case len(c.Records) == 0:
		return fmt.Errorf("sim: empty trace")
	case !(c.BinSeconds > 0) || math.IsInf(c.BinSeconds, 0):
		return fmt.Errorf("sim: bin width %g must be positive and finite", c.BinSeconds)
	case !(c.Horizon > 0) || math.IsInf(c.Horizon, 0):
		return fmt.Errorf("sim: horizon %g must be positive and finite", c.Horizon)
	case c.TopT < 1:
		return fmt.Errorf("sim: top-t %d must be >= 1", c.TopT)
	case len(c.Rates) == 0:
		return fmt.Errorf("sim: no sampling rates")
	case c.Runs < 1:
		return fmt.Errorf("sim: runs %d must be >= 1", c.Runs)
	}
	for _, p := range c.Rates {
		if !(p > 0 && p <= 1) {
			return fmt.Errorf("sim: sampling rate %g outside (0, 1]", p)
		}
	}
	return nil
}

func (c Config) agg() flow.Aggregator {
	if c.Agg == nil {
		return flow.FiveTuple{}
	}
	return c.Agg
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BinStat is the result for one measurement bin at one sampling rate.
type BinStat struct {
	// Start is the bin's start time in seconds.
	Start float64
	// Flows and Packets describe the original (unsampled) bin content.
	Flows   int
	Packets int64
	// Ranking and Detection aggregate the §5 and §7 swapped-pair metrics
	// over the sampling runs.
	Ranking   metrics.RunningStat
	Detection metrics.RunningStat
}

// RateSeries is the per-bin series for one sampling rate.
type RateSeries struct {
	Rate float64
	Bins []BinStat
}

// Result is a full experiment outcome.
type Result struct {
	Series []RateSeries
	// TopT and BinSeconds echo the configuration.
	TopT       int
	BinSeconds float64
}

// binData is the precomputed original content of one bin.
type binData struct {
	entries []flowtable.Entry // sorted in canonical ranking order
	packets int64
}

// Run executes the experiment on the fast flow-bin path.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bins, err := buildBins(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{TopT: cfg.TopT, BinSeconds: cfg.BinSeconds}
	for _, rate := range cfg.Rates {
		res.Series = append(res.Series, RateSeries{Rate: rate, Bins: newBinStats(bins, cfg.BinSeconds)})
	}

	// Task i is run i%Runs at rate i/Runs. Each task writes its own slot of
	// outs, and the slots are added in task order once all are done, so the
	// running means — and every digit a figure prints — do not depend on
	// the worker count.
	outs := make([][]metrics.PairCounts, len(cfg.Rates)*cfg.Runs)
	tasks := make(chan int)
	var wg sync.WaitGroup
	workers := cfg.workers()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sampled := make([]int64, 0, 1024)
			for i := range tasks {
				ri, run := i/cfg.Runs, i%cfg.Runs
				g := randx.New(cfg.Seed).Derive(0x5a17 + uint64(ri)<<32 + uint64(run))
				pcs := make([]metrics.PairCounts, len(bins))
				for bi, b := range bins {
					sampled = sampled[:0]
					for _, e := range b.entries {
						sampled = append(sampled, int64(g.Binomial(int(e.Packets), cfg.Rates[ri])))
					}
					pcs[bi] = metrics.CountSwappedCounts(b.entries, sampled, cfg.TopT)
				}
				outs[i] = pcs
			}
		}()
	}
	for i := range outs {
		tasks <- i
	}
	close(tasks)
	wg.Wait()
	for i, pcs := range outs {
		series := &res.Series[i/cfg.Runs]
		for bi, pc := range pcs {
			series.Bins[bi].Ranking.Add(float64(pc.Ranking))
			series.Bins[bi].Detection.Add(float64(pc.Detection))
		}
	}
	return res, nil
}

// newBinStats initializes the per-bin stat slots from the bin contents.
func newBinStats(bins []binData, binSeconds float64) []BinStat {
	out := make([]BinStat, len(bins))
	for i, b := range bins {
		out[i] = BinStat{Start: float64(i) * binSeconds, Flows: len(b.entries), Packets: b.packets}
	}
	return out
}

// buildBins draws the placement realization and assembles per-bin original
// flow lists under the configured aggregation.
func buildBins(cfg Config) ([]binData, error) {
	nBins := packetgen.NumBins(cfg.BinSeconds, cfg.Horizon)
	agg := cfg.agg()
	maps := make([]map[flow.Key]int64, nBins)
	for i := range maps {
		maps[i] = make(map[flow.Key]int64)
	}
	placement := randx.New(cfg.Seed).Derive(0xb1a5)
	err := packetgen.BinCounts(cfg.Records, cfg.BinSeconds, cfg.Horizon, placement, func(bc packetgen.BinCount) error {
		key := agg.Aggregate(cfg.Records[bc.Rec].Key)
		maps[bc.Bin][key] += int64(bc.Packets)
		return nil
	})
	if err != nil {
		return nil, err
	}
	bins := make([]binData, nBins)
	for i, m := range maps {
		b := &bins[i]
		b.entries = make([]flowtable.Entry, 0, len(m))
		for k, c := range m {
			b.entries = append(b.entries, flowtable.Entry{Key: k, Packets: c})
			b.packets += c
		}
		sort.Slice(b.entries, func(x, y int) bool { return flowtable.Less(b.entries[x], b.entries[y]) })
	}
	return bins, nil
}

// RunPackets executes the experiment on the monitor's packet path: for
// every rate and run, the packets of the streamed trace before Horizon are
// fed in trace order to a fresh one-worker stream.Engine that samples with
// the sampler mk built, and each bin it emits adds its swapped pairs to the
// bin's statistics. A bin with no packets emits nothing and scores zero, as
// in Run. It is intended for validation and for moderate traces; its cost
// is Runs × Rates × the full packet count.
//
// mk builds a fresh sampler for a rate; the sampler is Reset per run.
func RunPackets(cfg Config, mk func(rate float64) sampler.Sampler) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nBins := packetgen.NumBins(cfg.BinSeconds, cfg.Horizon)
	packetSeed := randx.New(cfg.Seed).Derive(0xb1a5).Uint64()
	res := &Result{TopT: cfg.TopT, BinSeconds: cfg.BinSeconds}
	for ri, rate := range cfg.Rates {
		bins := make([]BinStat, nBins)
		for bi := range bins {
			bins[bi].Start = float64(bi) * cfg.BinSeconds
		}
		smp := mk(rate)
		for run := 0; run < cfg.Runs; run++ {
			smp.Reset(uint64(ri)<<32 + uint64(run) + 1)
			eng, err := stream.NewEngine(stream.Config{
				Agg: cfg.agg(), Sampler: smp, BinSeconds: cfg.BinSeconds, TopT: cfg.TopT, Workers: 1,
			}, func(r stream.BinResult) error {
				b := &bins[r.Bin]
				b.Flows, b.Packets = len(r.Orig), r.OrigPackets
				b.Ranking.Add(float64(r.Pairs.Ranking))
				b.Detection.Add(float64(r.Pairs.Detection))
				return nil
			})
			if err != nil {
				return nil, err
			}
			err = packetgen.Stream(cfg.Records, packetSeed, func(p packet.Packet) error {
				if p.Time >= cfg.Horizon {
					return nil
				}
				return eng.Feed(p)
			})
			if cerr := eng.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			for bi := range bins {
				if b := &bins[bi]; b.Ranking.N() == int64(run) { // not emitted: empty
					b.Ranking.Add(0)
					b.Detection.Add(0)
				}
			}
		}
		res.Series = append(res.Series, RateSeries{Rate: rate, Bins: bins})
	}
	return res, nil
}

// Package pipeline is the paper's link monitor, wired once: read packets
// from a source, sample them at rate p, classify them into flows on the
// sharded stream.Engine, rank the top-t per measurement bin and — §9 —
// retune p from the bin just measured; per bin it also exports the
// sampled ranking as NetFlow v5 and writes the bin journal.
//
// cmd/flowtop (run to EOF, text report) and internal/daemon (run to
// signal, HTTP/metrics surface) are its two callers and differ only in
// what their per-bin callback does with the BinRecord. Config is the
// monitor's one configuration — the daemon's Config carries it whole as
// Monitor — and Flags its one command-line form, embedded by both
// binaries; a new monitor option is a Flags field, a Register line, a
// Flags.Config line and a Config field. Everything that
// decides the sampling rate or the export bytes lives here, so
// flowrank-lint's wallclock and maporder rules cover the package.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime/pprof"

	"flowrank/internal/adaptive"
	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/invert"
	"flowrank/internal/obs"
	"flowrank/internal/packet"
	"flowrank/internal/sampler"
	"flowrank/internal/source"
	"flowrank/internal/stream"
)

// Config describes one monitor; Source, Agg, Rate and BinSeconds are
// required.
type Config struct {
	// Source supplies the packets. Run closes it only to interrupt a
	// blocked read on cancellation; whoever opened it releases it.
	Source source.PacketSource
	Agg    flow.Aggregator // classifies packets into flows
	Rate   float64         // initial sampling probability, in (0, 1]
	Seed   uint64          // of the Bernoulli sampler
	TopT   int             // ranked top-list length
	// BinSeconds is the measurement bin width; Workers is the engine's
	// shard count (0 = its default), Tables its per-shard sampled flow
	// accounting (zero = exact; the original tables are always exact).
	BinSeconds float64
	Workers    int
	Tables     flowtable.Spec
	// Inverter, when set, estimates each bin's original flow-size
	// distribution. AdaptTarget, when positive, closes the §9 loop over
	// it: after every bin the rate is retuned to the cheapest one whose
	// predicted ranking metric stays at or below the target.
	Inverter    invert.Estimator
	AdaptTarget float64
	// Log receives operational records (adapt decisions, export
	// failures), nil discards them; Journal, when set, one JSON record
	// per bin (build it with NewJournal, check it with ValidateJournal).
	Log     *slog.Logger
	Journal *slog.Logger
	// NetFlow, when set, receives every bin's sampled top list as
	// NetFlow v5, one Write per datagram (flowtop's -netflow file,
	// flowrankd's UDP socket); NetFlowDest names it in journal and log.
	NetFlow     io.Writer
	NetFlowDest string
}

// validate holds the rules that need no I/O: the flag layer applies them
// before any file is opened, New for library callers.
func (c Config) validate() error {
	if c.Agg == nil {
		return errors.New("pipeline: Config.Agg is required")
	}
	if !(c.Rate > 0 && c.Rate <= 1) {
		return fmt.Errorf("pipeline: sampling rate %g outside (0, 1]", c.Rate)
	}
	if !(c.BinSeconds > 0) || math.IsInf(c.BinSeconds, 1) {
		return fmt.Errorf("pipeline: BinSeconds (-bin) is %g, must be positive and finite", c.BinSeconds)
	}
	if c.TopT < 0 {
		return fmt.Errorf("pipeline: TopT (-t) is %d, must not be negative", c.TopT)
	}
	if c.Workers < 0 {
		return fmt.Errorf("pipeline: Workers (-workers) is %d, must not be negative (0 = the engine's default)", c.Workers)
	}
	if !(c.AdaptTarget >= 0) {
		return fmt.Errorf("pipeline: AdaptTarget (-adapt) is %g, must be 0 (no loop) or positive", c.AdaptTarget)
	}
	if c.AdaptTarget > 0 && c.Inverter == nil {
		return errors.New("pipeline: AdaptTarget (-adapt) needs a per-bin inversion to refit against: set Config.Inverter (-invert parametric is the cheapest, -invert em the most general)")
	}
	if c.AdaptTarget > 0 && c.TopT < 1 {
		return fmt.Errorf("pipeline: AdaptTarget (-adapt) tunes the rate for a top list: TopT (-t) is %d, must be at least 1", c.TopT)
	}
	return c.Tables.Validate()
}

// Pipeline is a constructed monitor, ready to Run once.
type Pipeline struct {
	cfg  Config
	bern *sampler.Bernoulli
	// stats is the engine's per-stage telemetry, read during the run by
	// the daemon's /metrics.
	stats    *obs.PipelineStats
	ingested obs.Counter // packets Run read from the source (Ingested)
	nf       *exporter   // nil without Config.NetFlow
}

// New validates cfg and builds the sampler. It starts nothing: a Pipeline
// never Run holds no goroutine or descriptor.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Source == nil {
		return nil, errors.New("pipeline: Config.Source is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = stream.DefaultWorkers()
	}
	p := &Pipeline{cfg: cfg, bern: sampler.NewBernoulli(cfg.Rate, cfg.Seed), stats: obs.NewPipelineStats(workers)}
	if cfg.NetFlow != nil {
		p.nf = &exporter{w: cfg.NetFlow, dest: cfg.NetFlowDest, log: cfg.Log}
	}
	return p, nil
}

// Stats is the engine's per-stage telemetry, safe to read concurrently
// with Run (the daemon's /metrics).
func (p *Pipeline) Stats() *obs.PipelineStats { return p.stats }

// Ingested is the count of packets Run has read from the source, safe to
// read concurrently with Run (the daemon's /metrics).
func (p *Pipeline) Ingested() *obs.Counter { return &p.ingested }

// Rate is the live sampling probability. It moves only at bin boundaries,
// on Run's goroutine: read it from the per-bin callback, or outside Run.
func (p *Pipeline) Rate() float64 { return p.bern.P }

// Run feeds the source through the engine until the source ends or ctx is
// canceled, calling onBin once per non-empty bin, in bin order, on the
// calling goroutine, after the bin's NetFlow export and adaptive retune.
// The bin's journal line is written once onBin returns, so whatever onBin
// publishes (the daemon's counters) never lags behind the journal. Both
// arguments are valid until onBin returns; an onBin error stops the run.
//
// EOF flushes the final bin. Cancellation drains: the source is closed to
// unblock a pending read and the partial bin is flushed too — a stopped
// monitor reports the measurements it has. Any other source error aborts
// without flushing: a corrupt trace must not report its half-ingested bin
// as a complete measurement.
func (p *Pipeline) Run(ctx context.Context, onBin func(stream.BinResult, *BinRecord) error) error {
	// The engine runs under context.Background: canceling its context
	// would discard the partial bin drain wants. Every Feed comes from
	// the loop below, so all sampling decisions — and closeBin's retune
	// between them — stay on one goroutine, the determinism contract.
	eng, err := stream.NewEngine(stream.Config{
		Agg:        p.cfg.Agg,
		Sampler:    p.bern,
		BinSeconds: p.cfg.BinSeconds,
		TopT:       p.cfg.TopT,
		Workers:    p.cfg.Workers,
		Inverter:   p.cfg.Inverter,
		Tables:     p.cfg.Tables,
		Obs:        p.stats,
		// Nothing here keeps bin buffers past emit (NetFlow records and
		// the journal record are value conversions), nor may onBin.
		Recycle: true,
	}, func(b stream.BinResult) error {
		rec := p.closeBin(b)
		if err := onBin(b, rec); err != nil {
			return err
		}
		if p.cfg.Journal != nil {
			p.cfg.Journal.Info(journalMsg, slog.Any("record", rec))
		}
		return nil
	})
	if err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { p.cfg.Source.Close() })
	defer stop()
	pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("role", "reader")))
	defer pprof.SetGoroutineLabels(ctx)

	blk := make([]packet.Packet, packet.BlockLen)
	for {
		n, err := p.cfg.Source.NextBlock(blk)
		if err != nil {
			if errors.Is(err, io.EOF) || ctx.Err() != nil {
				return eng.Close() // the latter: drain closed the source under us
			}
			eng.Abort()
			return fmt.Errorf("pipeline: reading source: %w", err)
		}
		p.ingested.Add(int64(n))
		if err := eng.Feed(blk[:n]...); err != nil {
			eng.Abort()
			return err
		}
	}
}

// closeBin is the per-bin work both front-ends share, in the order that
// keeps a bin labeled with the rate that produced it: capture the rate,
// export, only then retune, and record all three.
func (p *Pipeline) closeBin(b stream.BinResult) *BinRecord {
	start := obs.Nanotime()
	rate := p.bern.P
	rec := &BinRecord{
		Bin:               b.Bin,
		Start:             b.Start,
		End:               b.End,
		Table:             p.cfg.Tables.Kind.String(),
		Flows:             b.Flows,
		SampledFlows:      b.SampledFlows,
		OrigPackets:       b.OrigPackets,
		SampledPackets:    b.SampledPackets,
		SamplingRate:      rate,
		CountErrPkts:      b.CountErr,
		RankingFraction:   b.Pairs.RankingFrac(),
		DetectionFraction: b.Pairs.DetectionFrac(),
	}
	if inv := p.cfg.Inverter; inv != nil {
		ir := &InversionRecord{Method: inv.Name()}
		if e := b.Inversion; e != nil {
			ir.MeanPkts, ir.TailIndex, ir.Flows = e.Mean, e.TailIndex, e.FlowCount
		} else {
			ir.Err = b.InversionErr.Error()
		}
		rec.Inversion = ir
	}
	rec.NetFlow = p.nf.export(b, rate)
	if p.cfg.AdaptTarget > 0 {
		rec.Adapt = p.adapt(b)
	}
	// The engine timed barrier, merge and invert; emit is this function
	// (it runs inside the engine's emit), so it is timed here.
	st := b.Stages
	st.Emit = obs.Nanotime() - start
	st.Total = st.Barrier + st.Merge + st.Invert + st.Emit
	rec.Stages = &st
	return rec
}

// adapt closes the §9 loop: refit the controller to the bin's inversion
// and retune the live rate to the cheapest one whose predicted §5 ranking
// metric meets the target, effective from the next bin's first packet. A
// bin that cannot be refitted keeps the rate and says why — a monitor
// must not lose its sampling budget, or its run, to one degenerate bin.
func (p *Pipeline) adapt(b stream.BinResult) *AdaptRecord {
	rec := &AdaptRecord{PrevRate: p.bern.P, Rate: p.bern.P}
	switch {
	case b.InversionErr != nil:
		rec.Reason = b.InversionErr.Error()
	case b.Inversion == nil:
		rec.Reason = "no inversion"
	default:
		ctl := adaptive.Controller{Target: p.cfg.AdaptTarget, TopT: p.cfg.TopT, Workers: p.cfg.Workers}
		next, model, err := ctl.RecommendEstimate(*b.Inversion)
		if err != nil {
			rec.Reason = err.Error()
			break
		}
		rec.FittedFlows = model.N
		if next != p.bern.P {
			p.cfg.Log.Info("adapt: retuned rate", "bin", b.Bin, "prev_rate", p.bern.P, "rate", next)
			p.bern.P = next
			rec.Applied = true
			rec.Rate = next
		}
		return rec
	}
	p.cfg.Log.Info("adapt: keeping rate", "bin", b.Bin, "rate", p.bern.P, "reason", rec.Reason)
	return rec
}

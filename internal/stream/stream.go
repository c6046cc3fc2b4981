// Package stream implements the monitor half of the paper as a concurrent
// subsystem: a sharded, pipelined packet-ingestion engine that samples,
// classifies and ranks flows per measurement bin, the way the link monitor
// of §8 operates but scaled across cores.
//
// Stage 1 — the caller's goroutine inside Feed — makes every sampling
// decision in trace order, so the sampler's decision stream is exactly the
// one the sequential monitor would draw, and hashes each aggregated flow
// key once — the only hash the packet gets, whatever the table kind.
// Packets are then batched per shard by that hash, 2048 to a hand-off; the
// hand-off, not the bytes, is what a batch costs (defaultBatch has the
// measurements). Every shard — a lone one included — runs on its own
// worker goroutine, so the reader's decode, sampling and hashing overlap
// the tables' ingest. Each of the W shards owns its own original/sampled
// flowtable.Summary pair (the exact open-addressing table by default, or a
// bounded Space-Saving/Count-Min sketch via Config.Tables) and ingests a
// batch with one AddBatch per table, which addresses its slots, its key
// index and its counter rows from the hash the batch carries, so the hot
// path takes no locks, shares no state, and a table too large for the
// cache overlaps a batch's memory misses. At each bin boundary a barrier
// flushes every shard. A bin is closed without sorting it and without a
// map keyed by flow. The shards report their table sizes, the engine
// sizes the bin's buffers and gives each shard its own run of them, and
// each shard writes there its original flows as its table holds them, each
// one's sampled count beside it (a flow's original and sampled entries
// live in the same shard), its sampled top list and — for the inverter —
// its sampled counts without their keys. The engine then ranks only the
// top list to the front with the joined counts moving along (exact,
// because the shards partition the key space), and counts the paper's
// §5/§7 swapped pairs — which only ever compare a top flow with another
// flow — in one pass over the rest. With Config.Inverter set, the bin's
// sampled counts then go through the estimator, and BinResult carries its
// result as returned.
//
// The engine times its own work on every run, one way: each hand-off and
// stall on the reader, each batch a shard ingests, and each bin's barrier,
// merge and inversion, into an obs.PipelineStats — the caller's
// Config.Obs, or stats of its own when that is nil. BinResult.Stages
// carries a bin's flush timings. Timing never feeds back into a result.
//
// With exact tables the engine's measurements are identical to the
// sequential path's for any worker count: one worker is one shard holding
// the whole key space, and the cross-check tests pin Workers == N to the
// sequential reference exactly (top lists, metrics and totals as
// delivered, the unranked rest of Orig as a set), in the same spirit as
// the model engine's Workers=1-vs-N tests.
// Bounded summaries keep that determinism only per fixed worker count —
// the shard partition is part of a sketch's input — so across worker
// counts they agree within BinResult.CountErr instead.
package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/invert"
	"flowrank/internal/metrics"
	"flowrank/internal/obs"
	"flowrank/internal/packet"
	"flowrank/internal/sampler"
)

// Config describes one streaming run.
type Config struct {
	// Agg classifies packets into the flows being ranked. Required.
	Agg flow.Aggregator
	// Sampler makes the per-packet keep/drop decision. It is called once
	// per packet in trace order from the Feed goroutine. Required.
	Sampler sampler.Sampler
	// BinSeconds is the measurement bin width. Required, positive.
	BinSeconds float64
	// TopT is the length of the ranked top list in every BinResult.
	TopT int
	// Workers is the number of shard workers; 0 means GOMAXPROCS. Each
	// worker is a goroutine owning one shard, one worker included: the Feed
	// goroutine only samples, hashes and batches.
	Workers int
	// batchSize is the number of packets a shard ingests at a time; 0
	// means defaultBatch. No result depends on it, which the tests show by
	// sweeping it.
	batchSize int
	// Inverter, when non-nil, estimates the original flow-size
	// distribution of every bin from its sampled counts at the sampler's
	// rate (Sampler.Rate()) and hands over the estimator's result in
	// BinResult.Inversion, or its error in BinResult.InversionErr. Both
	// are part of the engine's bit-identical contract: they depend only on
	// the merged multiset of sampled counts, never on worker count or
	// batch size.
	Inverter invert.Estimator
	// Tables selects the per-shard flow-accounting implementation for both
	// the original and sampled tables (flowtop -table/-memory). The zero
	// Spec is the exact open-addressing table. Bounded kinds (spacesaving,
	// countmin) cap each shard at Tables.Slots flows; their results carry
	// the per-flow overcount bound in BinResult.CountErr and are
	// deterministic only per fixed worker count.
	Tables flowtable.Spec
	// Recycle, when set, reuses the engine's per-bin buffers (BinResult's
	// Orig and SampledTop slices) across bins: steady-state bins allocate
	// almost nothing, but every BinResult is valid only until the emit
	// callback returns. Leave it unset when retaining results beyond emit.
	Recycle bool
	// Obs, when non-nil, is where the engine records its pipeline
	// telemetry: reader dispatch latency and backpressure stalls,
	// per-shard queue depth and batch ingest time, and the bin-boundary
	// flush breakdown (barrier, merge, invert, total). When nil the engine
	// records the same into stats of its own; Obs selects no code path,
	// it is how a caller reads the stats, concurrently with the run. It
	// must come from obs.NewPipelineStats with at least Workers shards
	// (after the GOMAXPROCS default is applied). Recording is alloc-free
	// on the packet path and never feeds back into the measurement.
	// Timing reads use obs.Nanotime (telemetry only), keeping the
	// package's no-wall-clock determinism contract intact.
	Obs *obs.PipelineStats
}

// BinResult is the merged measurement of one non-empty bin.
type BinResult struct {
	// Bin is the bin index; Start and End its time interval. Bins with no
	// packets are skipped, so consecutive results may have index gaps.
	Bin        int64
	Start, End float64
	// Orig holds every flow of the bin. Its first min(TopT, len) entries
	// are the original top list in the canonical ranking order; the
	// remaining entries follow in no particular order (the tables' slot
	// order shard by shard: deterministic for a fixed worker count with the
	// default table, map iteration order with the map reference kind).
	// Call flowtable.SortEntries for the full ranking.
	Orig []flowtable.Entry
	// SampledTop is the exact global top-TopT of the sampled table.
	SampledTop []flowtable.Entry
	// SampledFlows is the sampled table's flow count.
	SampledFlows int
	// Pairs carries the §5 ranking and §7 detection swapped-pair counts of
	// the bin, each original flow against its own sampled count (0 when
	// sampling missed it).
	Pairs metrics.PairCounts
	// Totals of the original and sampled tables.
	OrigPackets, OrigBytes       int64
	SampledPackets, SampledBytes int64
	// Inversion is Config.Inverter's estimate of the bin's original
	// flow-size distribution, as the estimator returned it. InversionErr
	// is set instead when the bin could not be inverted: no sampled flows,
	// or too few for the estimator. Both are nil without an Inverter.
	Inversion    *invert.Estimate
	InversionErr error
	// CountErr is the worst-case per-flow packet overcount of any entry in
	// this result: 0 for exact tables, the maximum shard ErrorBound for
	// bounded summaries (deterministic for Space-Saving, probabilistic —
	// holding per flow with probability >= 1 - 2^-4 — for Count-Min).
	CountErr int64
	// Stages is the flush timing known when the bin is emitted: Barrier,
	// Merge and Invert, on every bin. Emit and Total time the emit
	// callback itself, so they are the callback's to fill.
	Stages obs.StageNanos
}

// batch is what the reader stage hands a shard: the packets routed to it
// — key aggregated and hashed, sampling decided — in trace order.
type batch struct {
	all  []flowtable.Observation // every packet
	kept []flowtable.Observation // the sampled ones among them
}

// emptied returns the batch's buffers at length zero, ready to refill.
func (b batch) emptied() batch { return batch{all: b.all[:0], kept: b.kept[:0]} }

// shardMsg is what the reader hands a shard: a packet batch, or one of
// the two steps of a bin barrier — flush (ingest what is queued, report
// the table sizes), then part (write the bin's share of this shard into
// it and reset the tables).
type shardMsg struct {
	batch batch
	flush bool
	part  *binPart
}

// binPart is a run of the bin's buffers: the whole bin, or one shard's
// share of it, each slice exactly as long as what it holds.
type binPart struct {
	orig []flowtable.Entry
	// join is aligned with orig: join[i] is orig[i]'s sampled count, 0
	// when sampling missed the flow.
	join []int64
	top  []flowtable.Entry // the sampled top list
	// counts holds every sampled flow's count, keyless and in no order:
	// the inverter's input, nil when the engine does not invert.
	counts []float64
}

// shardSummary is a shard's answer to a barrier step: after flush, the
// sizes of its tables; after part, also their totals.
type shardSummary struct {
	flows, sampFlows       int
	origPackets, origBytes int64
	sampPackets, sampBytes int64
	countErr               int64
}

// shard owns one partition of the key space.
type shard struct {
	orig, samp flowtable.Summary
	stats      *obs.ShardStats
	in         chan shardMsg     // batches and barrier steps from the reader
	out        chan shardSummary // one answer per barrier step
	sampBuf    []flowtable.Entry // the sampled table, copied once per bin
}

// ingest accounts one batch into the shard's tables. The instrumentation
// (batch ingest time, packet counts) is alloc-free — obs primitives carry
// the same //flowrank:hotpath contract — and records telemetry only; it
// never alters an accounting decision.
//
//flowrank:hotpath
func (s *shard) ingest(b batch) {
	t0 := obs.Nanotime()
	s.orig.AddBatch(b.all)
	s.samp.AddBatch(b.kept)
	s.stats.Ingest.Observe(obs.Nanotime() - t0)
	s.stats.Batches.Inc()
	s.stats.Packets.Add(int64(len(b.all)))
}

// fill writes the shard's share of the bin into p and resets its tables:
// the original flows as the table holds them (nothing is sorted), each
// one's sampled count beside it — a flow's original and sampled entries
// live in the same shard, so the join is a lookup in the shard's own
// sampled table — then, from one copy of the sampled table, its top list
// and its counts. The totals go back in the summary.
func (s *shard) fill(p *binPart) shardSummary {
	s.orig.AppendAll(p.orig[:0])
	for i := range p.orig {
		e, _ := s.samp.Lookup(p.orig[i].Key)
		p.join[i] = e.Packets
	}
	s.sampBuf = s.samp.AppendAll(s.sampBuf[:0])
	for i := range p.counts {
		p.counts[i] = float64(s.sampBuf[i].Packets)
	}
	copy(p.top, flowtable.SelectTop(s.sampBuf, len(p.top)))
	sum := shardSummary{
		flows:       len(p.orig),
		sampFlows:   len(s.sampBuf),
		origPackets: s.orig.TotalPackets(),
		origBytes:   s.orig.TotalBytes(),
		sampPackets: s.samp.TotalPackets(),
		sampBytes:   s.samp.TotalBytes(),
		countErr:    max(s.orig.ErrorBound(), s.samp.ErrorBound()),
	}
	s.orig.Reset()
	s.samp.Reset()
	return sum
}

// loop is the shard worker: ingest batches and hand them back spent,
// answer barrier steps.
//
//flowrank:hotpath
func (s *shard) loop(wg *sync.WaitGroup, free chan batch) {
	defer wg.Done()
	for msg := range s.in {
		switch {
		case msg.part != nil:
			s.out <- s.fill(msg.part)
		case msg.flush:
			s.out <- shardSummary{flows: s.orig.Len(), sampFlows: s.samp.Len()}
		default:
			s.ingest(msg.batch)
			select { // free has room for every batch in flight; never block on it
			case free <- msg.batch:
			default:
			}
		}
	}
}

// Engine is a running streaming monitor. Feed it packets in trace order,
// then Close it; the emit callback receives one BinResult per non-empty
// bin, in bin order, from the Feed/Close goroutine. An Engine is not safe
// for concurrent Feed calls — the single-threaded reader stage is what
// keeps the sampling decision stream sequential.
type Engine struct {
	cfg        Config
	emit       func(BinResult) error
	ctx        context.Context
	done       <-chan struct{} // ctx.Done(), nil for Background
	shards     []*shard
	pending    []batch    // reader-side per-shard batches
	free       chan batch // spent batches back from the workers
	wg         sync.WaitGroup
	bin        int64
	binPackets int64
	err        error
	closed     bool
	stopped    bool // workers shut down
	// bufs holds the bin the shards write at a barrier and the merge reads;
	// parts[s] is shard s's share of it. bufs.orig and bufs.top become the
	// BinResult's Orig and SampledTop, so they are reused only when
	// cfg.Recycle is set; join and counts never leave the engine and are
	// always reused. Safe: the next barrier — the next time they are
	// written — starts only after the previous bin's emit returned.
	bufs  binPart
	parts []binPart
}

// ErrClosed is returned (wrapped) by Feed on an engine that was Closed or
// Aborted without a run error. When the run failed — an emit error, a
// context cancellation — Feed and Close keep returning that original
// error instead, so errors.Is against the first failure stays true for
// the lifetime of the engine and is never shadowed by ErrClosed.
var ErrClosed = errors.New("stream: engine already closed")

// clampBin is the far-future bin index: beyond 2^53 bins the float
// quotient no longer identifies an exact integer, so every later
// timestamp collapses into this one final bin.
const clampBin int64 = 1 << 53

// defaultBatch is the number of packets a shard ingests at a time, one
// channel send to its worker. A bin boundary and Close ingest whatever is
// pending, so no result depends on it. What a batch costs is the hand-off
// — the worker parked and woken, goroutines migrating between cores — not
// the bytes handed over: on a 2-vCPU container 512 -> 2048 took a
// two-worker Count-Min replay of 2.7 M packets 0.390 -> 0.325 s wall and
// 0.640 -> 0.566 s CPU (11 of 11 alternating pairs), and 4096 or 8192 read
// the same as 2048. One worker runs on its own goroutine too, so the
// reader's decode, sampling and hashing overlap the shard's ingest: on the
// same container an exact-table replay of 2.7 M packets and ~280k flows
// went from 0.493 to 0.343 s wall at 0.495 -> 0.513 s CPU when the lone
// shard moved off the reader, which had ingested it in 512-packet batches
// itself (30 alternating pairs, 29 faster). Pinned to one core, where
// nothing overlaps and a batch leaves L1 before the shard reads it back,
// the replay read 0.441 -> 0.440 s wall and 0.431 -> 0.438 s CPU (24
// pairs, 11 faster).
const defaultBatch = 2048

// shardQueue is the number of messages a shard's inbound queue holds: a
// few batches of slack, so the reader runs on while a worker is still
// ingesting or waking up.
const shardQueue = 4

// DefaultWorkers is the shard worker count a zero Config.Workers
// resolves to — exported so callers preallocating per-shard state (an
// obs.PipelineStats) can size it for the engine they are about to build.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// NewEngine validates cfg, starts the shard workers and returns an engine
// ready for Feed. Every engine must be Closed (or Aborted), even after an
// error, to release its workers.
func NewEngine(cfg Config, emit func(BinResult) error) (*Engine, error) {
	return NewEngineContext(context.Background(), cfg, emit)
}

// NewEngineContext is NewEngine under a context: when ctx is canceled the
// engine aborts — Feed starts failing with an error carrying the
// cancellation cause (errors.Is context.Canceled / DeadlineExceeded), the
// workers are released, and the partial final bin is NOT flushed, exactly
// like Abort. A mid-stream cancellation means the run's measurements are
// incomplete and must not be reported; a caller that instead wants the
// partial bin emitted (a daemon draining on SIGTERM) stops feeding and
// calls Close itself rather than canceling the engine's context.
func NewEngineContext(ctx context.Context, cfg Config, emit func(BinResult) error) (*Engine, error) {
	if ctx == nil {
		return nil, errors.New("stream: nil context")
	}
	if cfg.Agg == nil {
		return nil, errors.New("stream: Config.Agg is required")
	}
	if cfg.Sampler == nil {
		return nil, errors.New("stream: Config.Sampler is required")
	}
	if !(cfg.BinSeconds > 0) || math.IsInf(cfg.BinSeconds, 0) {
		return nil, fmt.Errorf("stream: bin width %g must be positive and finite", cfg.BinSeconds)
	}
	if cfg.TopT < 0 {
		return nil, fmt.Errorf("stream: top list length %d is negative", cfg.TopT)
	}
	if cfg.Workers == 0 {
		cfg.Workers = DefaultWorkers()
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("stream: worker count %d must be at least 1", cfg.Workers)
	}
	if cfg.batchSize == 0 {
		cfg.batchSize = defaultBatch
	}
	if emit == nil {
		return nil, errors.New("stream: emit callback is required")
	}
	if err := cfg.Tables.Validate(); err != nil {
		return nil, err
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewPipelineStats(cfg.Workers)
	}
	if len(cfg.Obs.Shards) < cfg.Workers {
		return nil, fmt.Errorf("stream: Config.Obs has %d shard slots for %d workers; allocate with obs.NewPipelineStats(workers)",
			len(cfg.Obs.Shards), cfg.Workers)
	}
	e := &Engine{cfg: cfg, emit: emit, ctx: ctx, done: ctx.Done()}
	e.shards = make([]*shard, cfg.Workers)
	e.parts = make([]binPart, cfg.Workers)
	for i := range e.shards {
		orig, err := cfg.Tables.New(cfg.Agg)
		if err != nil {
			return nil, err
		}
		samp, err := cfg.Tables.New(cfg.Agg)
		if err != nil {
			return nil, err
		}
		e.shards[i] = &shard{orig: orig, samp: samp, stats: &cfg.Obs.Shards[i]}
	}
	e.pending = make([]batch, cfg.Workers)
	for i := range e.pending {
		e.pending[i] = e.newBatch()
	}
	// A shard has at most shardQueue+2 batches in flight: the one its
	// worker ingests, a full queue and one the reader is blocked sending.
	// free has room for all of them, so a worker never drops a spent batch
	// and, once the batches in circulation stop growing, every hand-off
	// takes a spent batch instead of a new one.
	e.free = make(chan batch, cfg.Workers*(shardQueue+2))
	for _, s := range e.shards {
		s.in = make(chan shardMsg, shardQueue)
		s.out = make(chan shardSummary, 1)
		e.wg.Add(1)
		go s.loop(&e.wg, e.free)
	}
	return e, nil
}

// Feed accounts one packet. Packets must arrive in non-decreasing time
// order; crossing a bin boundary triggers the barrier flush and the emit
// callback before the packet is accounted into its own bin.
func (e *Engine) Feed(p packet.Packet) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return ErrClosed
	}
	if e.done != nil {
		select {
		case <-e.done:
			e.cancel()
			return e.err
		default:
		}
	}
	// The far-future bin is a clamp (see targetBin): once in it, later
	// packets accumulate there rather than re-triggering the boundary,
	// which would emit duplicate bins with the same clamped index.
	if e.bin < clampBin && p.Time >= float64(e.bin+1)*e.cfg.BinSeconds {
		if err := e.flushBin(); err != nil {
			return err
		}
		e.bin = e.targetBin(p.Time)
	}
	kept := e.cfg.Sampler.Sample(p)
	key := e.cfg.Agg.Aggregate(p.Key)
	o := flowtable.Observation{Key: key, Hash: key.FastHash(), Time: p.Time, Size: int64(p.Size)}
	s := e.shardOf(o.Hash)
	b := &e.pending[s]
	b.all = append(b.all, o)
	if kept {
		b.kept = append(b.kept, o)
	}
	if len(b.all) >= e.cfg.batchSize {
		e.dispatch(s)
	}
	e.binPackets++
	return nil
}

// shardOf returns the shard that owns a key of the given hash: hash mod
// the worker count, taken as a mask when the count is a power of two (one
// shard included), which spares the packet a 64-bit division.
func (e *Engine) shardOf(hash uint64) int {
	n := uint64(len(e.shards))
	if n&(n-1) == 0 {
		return int(hash & (n - 1))
	}
	return int(hash % n)
}

// Close flushes the final bin, stops the workers and returns the first
// error the run hit (if any). It is idempotent: closing again — or
// closing after Abort or a run failure — returns the original run error,
// never a new one. If the engine's context was canceled, Close aborts
// instead of flushing and returns the cancellation error.
func (e *Engine) Close() error {
	if e.closed {
		return e.err
	}
	if e.done != nil {
		select {
		case <-e.done:
			e.cancel()
			return e.err
		default:
		}
	}
	e.closed = true
	if e.err == nil {
		e.flushBin() // the error, if any, lands in e.err via fail
	}
	e.shutdown()
	return e.err
}

// cancel records the context's cancellation cause as the run error and
// aborts without flushing the partial bin — context cancellation is
// Abort with an error identity callers can test with errors.Is.
func (e *Engine) cancel() {
	e.closed = true
	e.fail(fmt.Errorf("stream: engine canceled: %w", context.Cause(e.ctx)))
}

// Abort releases the engine's workers without flushing the partial final
// bin (pending batches included) — for callers failing mid-stream whose
// partial measurements must not be reported. After Abort, Feed returns
// ErrClosed (or the run's earlier error, if any) and Close is a no-op
// returning the run's error.
// Canceling the context passed to NewEngineContext has the same effect,
// with the cancellation cause as the run error.
func (e *Engine) Abort() {
	e.closed = true
	e.shutdown()
}

// minKeptCap is the least capacity a new batch's kept buffer starts with.
const minKeptCap = 32

// newBatch returns an empty batch. all holds batchSize observations and
// never grows; kept receives the sampled fraction of them, so it starts at
// the capacity the sampler's rate implies and grows by append when a batch
// keeps more. A recycled batch keeps what it grew to (emptied), so the
// steady state still allocates nothing, and the up to shardQueue+3
// batches a shard has in circulation hold p·batchSize kept observations
// each, not batchSize.
func (e *Engine) newBatch() batch {
	n := e.cfg.batchSize
	kept := int(e.cfg.Sampler.Rate() * float64(n))
	return batch{
		all:  make([]flowtable.Observation, 0, n),
		kept: make([]flowtable.Observation, 0, min(max(kept, minKeptCap), n)),
	}
}

// dispatch hands shard s its pending batch and takes a spent batch (or a
// new one) in its place. The hand-off also records the shard's queue
// depth, its latency, and whether the send had to stall on a full queue —
// the reader-side backpressure signal.
func (e *Engine) dispatch(s int) {
	b := e.pending[s]
	if len(b.all) == 0 {
		return
	}
	st, in := e.cfg.Obs, e.shards[s].in
	depth := int64(len(in))
	st.Shards[s].Depth.Set(depth)
	st.Reader.QueueDepthMax.SetMax(depth)
	t0 := obs.Nanotime()
	select {
	case in <- shardMsg{batch: b}:
	default:
		st.Reader.Stalls.Inc()
		in <- shardMsg{batch: b}
	}
	st.Reader.Dispatch.Observe(obs.Nanotime() - t0)
	st.Reader.Batches.Inc()
	select {
	case b = <-e.free:
		e.pending[s] = b.emptied()
	default:
		e.pending[s] = e.newBatch()
	}
}

// flushBin runs the bin barrier: have every shard ingest what is pending
// and report its table sizes, size the bin's buffers and have every shard
// write its share into them, merge and emit the BinResult. Empty bins (no
// packets anywhere) emit nothing. It also records the flush breakdown —
// barrier, merge, invert, and the whole flush through emit — into the
// cumulative histograms, and hands the first three to emit in
// BinResult.Stages, so a callback building a per-bin journal record has
// its own bin's timings.
func (e *Engine) flushBin() error {
	if e.binPackets == 0 {
		return nil
	}
	e.binPackets = 0
	st := &e.cfg.Obs.Flush
	t0 := obs.Nanotime()
	for s := range e.shards {
		e.dispatch(s)
	}
	sums := make([]shardSummary, len(e.shards))
	e.barrierStep(sums, false)
	e.carve(sums)
	e.barrierStep(sums, true)
	tBarrier := obs.Nanotime()
	r := e.mergeBin(sums)
	tMerge := obs.Nanotime()
	if e.cfg.Inverter != nil {
		r.Inversion, r.InversionErr = e.invertBin()
	}
	tInvert := obs.Nanotime()
	r.Stages = obs.StageNanos{Barrier: tBarrier - t0, Merge: tMerge - tBarrier, Invert: tInvert - tMerge}
	st.Barrier.Observe(r.Stages.Barrier)
	st.Merge.Observe(r.Stages.Merge)
	st.Invert.Observe(r.Stages.Invert)
	err := e.emit(r)
	st.Total.Observe(obs.Nanotime() - t0)
	if err != nil {
		e.fail(fmt.Errorf("stream: emitting bin %d: %w", r.Bin, err))
		return e.err
	}
	return nil
}

// barrierStep has every shard answer one barrier step into sums: flush,
// or with fill its part of the bin. Every worker is sent its message
// before any answer is collected, so the workers answer in parallel.
func (e *Engine) barrierStep(sums []shardSummary, fill bool) {
	for s, sh := range e.shards {
		msg := shardMsg{flush: !fill}
		if fill {
			msg.part = &e.parts[s]
		}
		sh.in <- msg
	}
	for s, sh := range e.shards {
		sums[s] = <-sh.out
	}
}

// carve sizes the bin's buffers to the table sizes the shards reported and
// cuts each shard its part, shard after shard, so Orig holds the shards'
// flows in shard order. Each part is capped at its own length: a shard
// appending its flows cannot spill into the next one's.
func (e *Engine) carve(sums []shardSummary) {
	flows, sampFlows, tops := 0, 0, 0
	for _, s := range sums {
		flows += s.flows
		sampFlows += s.sampFlows
		tops += min(e.cfg.TopT, s.sampFlows)
	}
	b := &e.bufs
	if !e.cfg.Recycle {
		b.orig, b.top = nil, nil
	}
	b.orig, b.join, b.top = resize(b.orig, flows), resize(b.join, flows), resize(b.top, tops)
	if e.cfg.Inverter != nil {
		b.counts = resize(b.counts, sampFlows)
	}
	var o, so, to int
	for i, s := range sums {
		n, k, t := s.flows, s.sampFlows, min(e.cfg.TopT, s.sampFlows)
		e.parts[i] = binPart{orig: b.orig[o : o+n : o+n], join: b.join[o : o+n : o+n], top: b.top[to : to+t : to+t]}
		if b.counts != nil {
			e.parts[i].counts = b.counts[so : so+k : so+k]
		}
		o, so, to = o+n, so+k, to+t
	}
}

// errNoSampledFlows is the inversion error of a bin in which sampling kept
// no packet.
var errNoSampledFlows = errors.New("no sampled flows")

// invertBin runs the estimator over the bin's sampled counts, which come in
// the shards' table order: estimators canonicalize their input, so the
// result depends only on the multiset of counts.
func (e *Engine) invertBin() (*invert.Estimate, error) {
	if len(e.bufs.counts) == 0 {
		return nil, errNoSampledFlows
	}
	est, err := e.cfg.Inverter.Invert(e.bufs.counts, e.cfg.Sampler.Rate())
	if err != nil {
		return nil, err
	}
	return &est, nil
}

// resize returns s at length n, reusing its array when it is large enough.
// A new array is made, not grown: fresh memory from the OS needs no
// clearing, so its pages are first touched by the shards filling their
// parts in parallel, not by the reader here (1.3 ms of adapt-loop's one
// 47k-flow bin when slices.Grow cleared them).
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// mergeBin reads the bin the shards wrote into the global bin result
// without sorting it. The shards partition the key space, so the bin's
// flow list is the shards' lists one after another and its top list is the
// top of them all (likewise for the sampled top lists) — exact for exact
// tables; for bounded summaries the same holds for the per-shard
// estimates, with the per-flow estimation error carried in CountErr.
// SelectTopAligned ranks the top list to the front of Orig in place, the
// joined sampled counts moving along, which is all CountSwappedCounts and
// BinResult's contract need. The inversion stage runs in flushBin, after
// this merge, so the two are timed as distinct pipeline stages.
func (e *Engine) mergeBin(sums []shardSummary) BinResult {
	r := BinResult{
		Bin:        e.bin,
		Start:      float64(e.bin) * e.cfg.BinSeconds,
		End:        float64(e.bin+1) * e.cfg.BinSeconds,
		Orig:       e.bufs.orig,
		SampledTop: flowtable.SelectTop(e.bufs.top, e.cfg.TopT),
	}
	for i := range sums {
		s := &sums[i]
		r.OrigPackets += s.origPackets
		r.OrigBytes += s.origBytes
		r.SampledPackets += s.sampPackets
		r.SampledBytes += s.sampBytes
		r.SampledFlows += s.sampFlows
		r.CountErr = max(r.CountErr, s.countErr)
	}
	flowtable.SelectTopAligned(r.Orig, e.bufs.join, e.cfg.TopT)
	r.Pairs = metrics.CountSwappedCounts(r.Orig, e.bufs.join, e.cfg.TopT)
	return r
}

// targetBin returns the bin containing time t (known to lie at or past the
// end of the current bin) in O(1), instead of walking bin by bin — a trace
// with one far-future timestamp must not spin through billions of empty
// flushes. The float quotient gives the candidate; the two adjustment
// loops (at most a step or two) align it with the exact boundary
// comparisons the walk would have made, so the bin labels are identical.
func (e *Engine) targetBin(t float64) int64 {
	q := t / e.cfg.BinSeconds
	if !(q < float64(clampBin)) {
		return clampBin
	}
	b := int64(q)
	if b < e.bin+1 {
		b = e.bin + 1
	}
	for t >= float64(b+1)*e.cfg.BinSeconds {
		b++
	}
	for b > e.bin+1 && t < float64(b)*e.cfg.BinSeconds {
		b--
	}
	return b
}

// fail records the run's first error and stops the workers so a failed
// engine holds no resources.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.shutdown()
}

func (e *Engine) shutdown() {
	if e.stopped {
		return
	}
	e.stopped = true
	for _, s := range e.shards {
		close(s.in)
	}
	e.wg.Wait()
}

// Package stream implements the monitor half of the paper as a concurrent
// subsystem: a sharded, pipelined packet-ingestion engine that samples,
// classifies and ranks flows per measurement bin, the way the link monitor
// of §8 operates but scaled across cores.
//
// Stage 1 — the caller's goroutine inside Feed — makes every sampling
// decision in trace order, so the sampler's decision stream is exactly the
// one the sequential monitor would draw. It cuts each Feed call at the bin
// boundaries and draws a segment's decisions in one SampleBlock call, after
// the flush before it, so a rate the emit callback retunes applies from
// the next packet on. It hashes each aggregated flow key once — the only
// hash the packet gets, whatever the table kind — and writes the packet's
// observation in place into the pending batch of the shard that hash
// picks, and a kept packet's into the batch's sampled ones too: 2048
// packets to a hand-off, and the hand-off, not the bytes, is what a batch
// costs (defaultBatch has the measurements). Every shard — a lone one
// included — runs on its own worker goroutine, so the reader's decode,
// sampling and hashing overlap the tables' ingest. Each of the W shards
// owns its own original/sampled flowtable.Summary pair and ingests a batch
// with one AddBatch per table, which addresses its slots, its key index
// and its counter rows from the hash the batch carries, so the hot path
// takes no locks, shares no state, and a table too large for the cache
// overlaps a batch's memory misses.
// The original table is the evaluation oracle the sampled one is scored
// against, and it is exact whatever Config.Tables names: the exact
// open-addressing table keeping counts only, no timestamps
// (flowtable.Spec.NewCounts), or the map reference under the map kind.
// Config.Tables selects the sampled table alone, which a bounded
// Space-Saving or Count-Min sketch can cap. The oracle is the ground truth
// a live monitor never has, so its memory grows with the bin's flows.
//
// At each bin boundary a two-step barrier closes the bin where its flows
// live, and only top lists, pair counts, sampled counts and totals leave
// the shards. In the first step every shard ingests what is queued, ranks
// its original and its sampled top list with the same ranker, one scan of
// each table (flowtable.Summary.AppendTopTies), counts the original flows
// that tie its list's last, and joins each original top flow with its
// sampled count (a flow's original and sampled entries live in the same
// shard). One k-way merge makes each side's shard lists the bin's — exact,
// because the shards partition the key space. In the second step every
// shard sums the paper's §5/§7 swapped pairs between the original list and
// its own flows (metrics.Boundary): a flow below the list's smallest size
// scores as an unsampled one unless its sampled count reaches a top
// flow's, so one scan of the sampled table, with a lookup in the original
// table for each flow that reaches, finds every exception, and the flows
// tying the smallest size are scored in full. The shard then writes — for
// the inverter — its sampled counts without their keys into its run of the
// bin's buffer, and resets its tables. The engine adds the sums up.
// Nothing is sorted and no map keyed by flow is built. The barrier costs
// what the bin's own flows cost, not what the tables hold room for: a
// shard's tables keep the arrays the busiest bin grew them to, and their
// scans and resets visit only what the bin occupied (flowtable.Flat's line
// bitmap, the sketches' tracked flows), so a quiet bin after a busy one
// closes in microseconds. With Config.Inverter set, the bin's sampled
// counts then go through the estimator, and BinResult carries its result
// as returned.
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
// delivered), in the same spirit as the model engine's Workers=1-vs-N
// tests. With a bounded sampled table the oracle's side of a bin — Flows,
// OrigTop and the original totals — is still the same for any worker
// count, equal to an exact run's. The sampled side is deterministic only
// per fixed worker count — the shard partition is part of a sketch's
// input — so across worker counts its counts agree within
// BinResult.CountErr instead.
package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
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
	// flow.FiveTuple, the identity, is recognised once at construction, and
	// Feed then keeps each packet's key without a call; any other
	// aggregator is called once per packet.
	Agg flow.Aggregator
	// Sampler makes the per-packet keep/drop decision, in trace order on
	// the Feed goroutine: one SampleBlock call per run of up to
	// packet.BlockLen packets within a bin, which reads the rate once, so a
	// rate retuned between bins applies from the next call on. A
	// sampler.Bernoulli at a low rate draws one random number per kept
	// packet, not per packet. Required.
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
	// Tables selects the per-shard flow-accounting implementation of the
	// sampled table (flowtop -table/-memory); the original table is exact
	// whatever it names. The zero Spec is the exact open-addressing table.
	// Bounded kinds (spacesaving, countmin) cap each shard's sampled table
	// at Tables.Slots flows; their sampled counts carry the per-flow
	// overcount bound in BinResult.CountErr and are deterministic only per
	// fixed worker count.
	Tables flowtable.Spec
	// Recycle, when set, reuses the arrays of BinResult's two top lists,
	// OrigTop and SampledTop, across bins: steady-state bins allocate
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
	// OrigTop is the original top list: the bin's min(TopT, Flows)
	// highest-ranked flows in the canonical ranking order, each with its
	// Key, Packets and Bytes. First and Last are zero for every table
	// kind: the original table is an oracle nothing reads a time from.
	OrigTop []flowtable.Entry
	// Flows is the original table's flow count.
	Flows int
	// SampledTop is the exact global top-TopT of the sampled table.
	SampledTop []flowtable.Entry
	// SampledFlows is the sampled table's flow count.
	SampledFlows int
	// Pairs carries the §5 ranking and §7 detection swapped-pair counts of
	// the bin, each original flow against its own sampled count (0 when
	// sampling missed it): metrics.CountSwapped over all Flows flows.
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
	// CountErr is the worst-case per-flow packet overcount of any sampled
	// count in this result: 0 for an exact sampled table, the maximum shard
	// ErrorBound of a bounded one (deterministic for Space-Saving,
	// probabilistic — holding per flow with probability >= 1 - 2^-4 — for
	// Count-Min). The original side is exact.
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
// the two steps of a bin barrier — rank (ingest what is queued, rank the
// shard's two top lists), then close (score the shard's flows against
// the bin's top list, write the shard's share of the bin and reset the
// tables).
type shardMsg struct {
	batch batch
	rank  bool
	close *binClose
}

// binClose is what the close step gives a shard: the bin's original top
// list and its scorer, which every shard reads, and the shard's own run of
// the bin's counts buffer, exactly as long as what it holds.
type binClose struct {
	top   []flowtable.Entry
	score *metrics.Boundary
	// counts holds every sampled flow's count, keyless and in no order:
	// the inverter's input, nil when the engine does not invert.
	counts []float64
}

// shardSummary is a shard's answer to a barrier step: after rank, the
// size of its sampled table; after close, also its flow count, the totals
// of its tables and the detection pairs of its flows.
type shardSummary struct {
	flows, sampFlows       int
	detection              int64
	origPackets, origBytes int64
	sampPackets, sampBytes int64
	countErr               int64
}

// shard owns one partition of the key space.
type shard struct {
	orig, samp flowtable.Summary
	topT       int
	stats      *obs.ShardStats
	in         chan shardMsg     // batches and barrier steps from the reader
	out        chan shardSummary // one answer per barrier step
	// top and sampTop are the rank step's original and sampled top lists,
	// topSampled[i] the sampled count of top[i], and ties the number of
	// flows outside top that tie its last.
	top        []flowtable.Entry
	sampTop    []flowtable.Entry
	topSampled []int64
	ties       int
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

// rank is the barrier's first step: rank both tables, count the original
// flows that tie their list's last, and join each original top flow with
// its sampled count — a flow's original and sampled entries live in the
// same shard, so the join is a lookup in the shard's own sampled table.
// The original list keeps Key, Packets and Bytes.
func (s *shard) rank() shardSummary {
	s.top, s.ties = s.orig.AppendTopTies(s.top[:0], s.topT)
	s.sampTop, _ = s.samp.AppendTopTies(s.sampTop[:0], s.topT)
	s.topSampled = s.topSampled[:0]
	for i := range s.top {
		s.top[i].First, s.top[i].Last = 0, 0
		e, _ := s.samp.Lookup(s.top[i].Key)
		s.topSampled = append(s.topSampled, e.Packets)
	}
	return shardSummary{sampFlows: s.samp.Len()}
}

// close is the barrier's second step: score the shard's flows against the
// bin's top list from one copy of the sampled table, write the shard's
// sampled counts from it into c, and reset the tables. The detection sum
// and the totals go back in the summary.
func (s *shard) close(c *binClose) shardSummary {
	s.sampBuf = s.samp.AppendAll(s.sampBuf[:0])
	sum := shardSummary{
		flows:       s.orig.Len(),
		sampFlows:   len(s.sampBuf),
		detection:   s.detection(c),
		origPackets: s.orig.TotalPackets(),
		origBytes:   s.orig.TotalBytes(),
		sampPackets: s.samp.TotalPackets(),
		sampBytes:   s.samp.TotalBytes(),
		countErr:    s.samp.ErrorBound(),
	}
	for i := range c.counts {
		c.counts[i] = float64(s.sampBuf[i].Packets)
	}
	s.orig.Reset()
	s.samp.Reset()
	return sum
}

// detection sums the detection pairs between the bin's top list and the
// shard's flows outside it, in integers. The shard's flows in the list
// are a prefix of its own list. Every other flow of the list's smallest
// size ties it: the rest of the own list that does, and the ties the rank
// step counted when the own list ends on that size. The remaining flows
// lie below the list and score as unsampled flows do, and a tie scores as
// an unsampled tie does, unless its sampled count reaches a top flow's:
// the scan of the sampled table finds those, looks each up in the
// original table, and adds the difference its sampled count makes — with
// Score in full for a tie.
func (s *shard) detection(c *binClose) int64 {
	if len(c.top) == 0 {
		return 0
	}
	last := c.top[len(c.top)-1]
	in := 0
	for in < len(s.top) && !flowtable.Less(last, s.top[in]) {
		in++
	}
	ties := 0
	for _, e := range s.top[in:] {
		if e.Packets == last.Packets {
			ties++
		}
	}
	if n := len(s.top); n > 0 && s.top[n-1].Packets == last.Packets {
		ties += s.ties
	}
	below := s.orig.Len() - in - ties
	// Score(0, 0) is an unsampled flow below the list: every flow has a
	// packet, so the list's smallest size is at least 1.
	sum := int64(below)*c.score.Score(0, 0) + int64(ties)*c.score.Score(last.Packets, 0)
	reach := c.score.Reach()
	for i := range s.sampBuf {
		e := &s.sampBuf[i]
		if e.Packets < reach {
			continue
		}
		o, _ := s.orig.Lookup(e.Key)
		if !flowtable.Less(last, o) { // in the list
			continue
		}
		sum += c.score.Score(o.Packets, e.Packets) - c.score.Score(o.Packets, 0)
	}
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
		case msg.close != nil:
			s.out <- s.close(msg.close)
		case msg.rank:
			s.out <- s.rank()
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
	identity   bool // cfg.Agg is flow.FiveTuple: Feed copies the key
	bin        int64
	binEnd     float64 // where bin ends (setBin)
	binPackets int64
	kept       []bool // a segment's sampling decisions (Feed)
	err        error
	closed     bool
	stopped    bool // workers shut down
	// origTop and topSampled are the bin's original top list and its
	// sampled counts, score its scorer, sampTop the bin's sampled top list;
	// counts is the buffer the shards write the bin's sampled counts into,
	// and parts[s] is shard s's close step. origTop and sampTop become the
	// BinResult's OrigTop and SampledTop, so they are reused only when
	// cfg.Recycle is set; topSampled and counts never leave the engine and
	// are always reused. Safe: the next barrier — the next time they are
	// written — starts only after the previous bin's emit returned. sums
	// holds the shards' answers to a barrier step and heads a merge's
	// position in each shard's list, both reused from bin to bin.
	origTop    []flowtable.Entry
	topSampled []int64
	score      metrics.Boundary
	sampTop    []flowtable.Entry
	counts     []float64
	parts      []binClose
	sums       []shardSummary
	heads      []int
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
	e := &Engine{cfg: cfg, emit: emit, ctx: ctx, done: ctx.Done(), kept: make([]bool, packet.BlockLen)}
	_, e.identity = cfg.Agg.(flow.FiveTuple)
	e.setBin(0)
	e.shards = make([]*shard, cfg.Workers)
	e.parts = make([]binClose, cfg.Workers)
	e.sums = make([]shardSummary, cfg.Workers)
	e.heads = make([]int, cfg.Workers)
	for i := range e.shards {
		orig, err := cfg.Tables.NewCounts(cfg.Agg)
		if err != nil {
			return nil, err
		}
		samp, err := cfg.Tables.New(cfg.Agg)
		if err != nil {
			return nil, err
		}
		e.shards[i] = &shard{orig: orig, samp: samp, topT: cfg.TopT, stats: &cfg.Obs.Shards[i]}
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
	for i, s := range e.shards {
		s.in = make(chan shardMsg, shardQueue)
		s.out = make(chan shardSummary, 1)
		e.wg.Add(1)
		labels := pprof.Labels("role", "shard", "shard", strconv.Itoa(i))
		go pprof.Do(ctx, labels, func(context.Context) { s.loop(&e.wg, e.free) })
	}
	return e, nil
}

// Feed accounts packets, in order: one, or a block of them as a
// PacketSource's NextBlock returns it. Packets must arrive in
// non-decreasing time order; crossing a bin boundary triggers the barrier
// flush and the emit callback before the packet is accounted into its own
// bin, so the packets after it in the same call are sampled at whatever
// rate the callback left. The run's error, Close and the context are
// checked once per call: a flush that fails stops the call there.
//
// The call goes in segments: the packets up to the next bin boundary, at
// most packet.BlockLen of them. A segment's sampling decisions are drawn in
// one SampleBlock call after any flush before it, so they are the stream
// per-packet Sample calls would draw, at the rate the flush left. Each
// packet's observation is written in place into its shard's pending
// batch, and a kept one's copy field by field from the same values.
//
//flowrank:hotpath
func (e *Engine) Feed(ps ...packet.Packet) error {
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
	for len(ps) > 0 {
		if ps[0].Time >= e.binEnd {
			if err := e.flushBin(); err != nil {
				return err
			}
			e.setBin(e.targetBin(ps[0].Time))
		}
		// The first packet lies in the bin; the segment runs to the first
		// packet that does not.
		n, m := 1, min(len(ps), len(e.kept))
		for n < m && !(ps[n].Time >= e.binEnd) {
			n++
		}
		kept := e.kept[:n]
		e.cfg.Sampler.SampleBlock(kept)
		for i := range kept {
			p := &ps[i]
			key := p.Key
			if !e.identity {
				key = e.cfg.Agg.Aggregate(key)
			}
			hash := key.FastHash()
			s := e.shardOf(hash)
			b := &e.pending[s]
			j := len(b.all)
			b.all = b.all[:j+1]
			o := &b.all[j]
			o.Key, o.Hash, o.Time, o.Size = key, hash, p.Time, int64(p.Size)
			if kept[i] {
				k := len(b.kept)
				if k == cap(b.kept) {
					b.kept = slices.Grow(b.kept, 1)
				}
				b.kept = b.kept[:k+1]
				c := &b.kept[k]
				c.Key, c.Hash, c.Time, c.Size = key, hash, p.Time, int64(p.Size)
			}
			if j+1 >= e.cfg.batchSize {
				e.dispatch(s)
			}
		}
		e.binPackets += int64(n)
		ps = ps[n:]
	}
	return nil
}

// setBin makes b the current bin and records its end, the time from which
// a packet belongs to a later bin. The far-future bin is a clamp (see
// targetBin) and never ends: its end is NaN, which no time reaches, so
// later packets accumulate there rather than re-triggering the boundary,
// which would emit duplicate bins with the same clamped index.
func (e *Engine) setBin(b int64) {
	e.bin = b
	e.binEnd = float64(b+1) * e.cfg.BinSeconds
	if b >= clampBin {
		e.binEnd = math.NaN()
	}
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
// and rank its top lists, merge the lists and size the bin's buffer, have
// every shard close its share of the bin, merge the result and emit the
// BinResult. Empty bins (no packets anywhere) emit nothing. It also
// records the flush breakdown — barrier (the two steps), merge (the
// engine's work around them), invert, and the whole flush through emit —
// into the cumulative histograms, and hands the first three to emit in
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
	sums := e.sums
	e.barrierStep(sums, false)
	tRanked := obs.Nanotime()
	e.mergeTop()
	e.carve(sums)
	tMerged := obs.Nanotime()
	e.barrierStep(sums, true)
	tClosed := obs.Nanotime()
	r := e.mergeBin(sums)
	tMerge := obs.Nanotime()
	if e.cfg.Inverter != nil {
		r.Inversion, r.InversionErr = e.invertBin()
	}
	tInvert := obs.Nanotime()
	r.Stages = obs.StageNanos{
		Barrier: tRanked - t0 + tClosed - tMerged,
		Merge:   tMerged - tRanked + tMerge - tClosed,
		Invert:  tInvert - tMerge,
	}
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

// barrierStep has every shard answer one barrier step into sums: rank, or
// with close its part of the bin. Every worker is sent its message before
// any answer is collected, so the workers answer in parallel.
func (e *Engine) barrierStep(sums []shardSummary, closing bool) {
	for s, sh := range e.shards {
		msg := shardMsg{rank: !closing}
		if closing {
			msg.close = &e.parts[s]
		}
		sh.in <- msg
	}
	for s, sh := range e.shards {
		sums[s] = <-sh.out
	}
}

// mergeTop merges the shards' original and sampled top lists into the
// bin's two, the original flows' sampled counts moving along, and builds
// the original list's scorer.
func (e *Engine) mergeTop() {
	if !e.cfg.Recycle {
		e.origTop, e.sampTop = nil, nil
	}
	e.topSampled = e.topSampled[:0]
	e.origTop = e.merge(e.origTop[:0], func(sh *shard) []flowtable.Entry { return sh.top },
		func(sh *shard, i int) { e.topSampled = append(e.topSampled, sh.topSampled[i]) })
	e.sampTop = e.merge(e.sampTop[:0], func(sh *shard) []flowtable.Entry { return sh.sampTop }, func(*shard, int) {})
	e.score.Reset(e.origTop, e.topSampled)
}

// merge appends to dst the top TopT of the shards' lists list(sh), each in
// ranking order, and returns it; took learns each entry taken, as shard
// sh's i-th. The shards partition the key space, so the bin's top flows
// are the top of their own shards' lists: exact for exact tables, and for
// bounded summaries the same holds for their estimates.
func (e *Engine) merge(dst []flowtable.Entry, list func(*shard) []flowtable.Entry, took func(sh *shard, i int)) []flowtable.Entry {
	heads := e.heads // heads[s]: shard s's next flow
	clear(heads)
	for range e.cfg.TopT {
		best := -1
		var top flowtable.Entry
		for s, sh := range e.shards {
			if l := list(sh); heads[s] < len(l) && (best < 0 || flowtable.Less(l[heads[s]], top)) {
				best, top = s, l[heads[s]]
			}
		}
		if best < 0 {
			break
		}
		dst = append(dst, top)
		took(e.shards[best], heads[best])
		heads[best]++
	}
	return dst
}

// carve sizes the bin's sampled counts buffer, when the engine inverts, to
// the table sizes the shards reported and gives each shard its close step
// with its own run of it, shard after shard. Each run is capped at its own
// length: a shard writing its share cannot spill into the next one's.
func (e *Engine) carve(sums []shardSummary) {
	sampFlows := 0
	for _, s := range sums {
		sampFlows += s.sampFlows
	}
	if e.cfg.Inverter != nil {
		e.counts = resize(e.counts, sampFlows)
	}
	so := 0
	for i, s := range sums {
		e.parts[i] = binClose{top: e.origTop, score: &e.score}
		if e.counts != nil {
			e.parts[i].counts = e.counts[so : so+s.sampFlows : so+s.sampFlows]
		}
		so += s.sampFlows
	}
}

// errNoSampledFlows is the inversion error of a bin in which sampling kept
// no packet.
var errNoSampledFlows = errors.New("no sampled flows")

// invertBin runs the estimator over the bin's sampled counts, which come in
// the shards' table order: estimators canonicalize their input, so the
// result depends only on the multiset of counts.
func (e *Engine) invertBin() (*invert.Estimate, error) {
	if len(e.counts) == 0 {
		return nil, errNoSampledFlows
	}
	est, err := e.cfg.Inverter.Invert(e.counts, e.cfg.Sampler.Rate())
	if err != nil {
		return nil, err
	}
	// A copy, so that only a bin with an estimate allocates one.
	out := new(invert.Estimate)
	*out = est
	return out, nil
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

// mergeBin reads what the shards reported into the bin result: the flow
// counts, totals and detection sums add up. The inversion stage runs in
// flushBin, after this merge, so the two are timed as distinct pipeline
// stages.
func (e *Engine) mergeBin(sums []shardSummary) BinResult {
	r := BinResult{
		Bin:        e.bin,
		Start:      float64(e.bin) * e.cfg.BinSeconds,
		End:        float64(e.bin+1) * e.cfg.BinSeconds,
		OrigTop:    e.origTop,
		SampledTop: e.sampTop,
	}
	var detection int64
	for i := range sums {
		s := &sums[i]
		r.Flows += s.flows
		r.OrigPackets += s.origPackets
		r.OrigBytes += s.origBytes
		r.SampledPackets += s.sampPackets
		r.SampledBytes += s.sampBytes
		r.SampledFlows += s.sampFlows
		r.CountErr = max(r.CountErr, s.countErr)
		detection += s.detection
	}
	r.Pairs = e.score.Pairs(r.Flows, detection)
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

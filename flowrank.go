// Package flowrank is a Go implementation of the models and experiments of
// "Ranking flows from sampled traffic" (Barakat, Iannaccone, Diot — INRIA
// RR-5266 / CoNEXT 2005): how well the largest flows on a link can be
// detected and ranked when the monitor samples packets with probability p.
//
// The package exposes six layers:
//
//   - Analytical models (Model, OptimalRate): closed-form and quadrature
//     evaluation of the paper's swapped-pairs metrics for ranking (§5) and
//     detection (§7), under the paper's Pareto flow sizes or a size law an
//     Inverter estimated from sampled counts.
//
//   - Trace machinery (TraceConfig presets, GenerateTrace, StreamPackets):
//     synthetic flow-level traces calibrated to the paper's Sprint
//     workloads, and packet-level expansion using the paper's uniform
//     placement.
//
//   - Experiments (Simulate, Controller, SizeEstimator, the sampler, flow
//     tables): the §8 trace-driven evaluation plus the paper's three
//     future-work directions.
//
//   - Inversion (Inverter, Inversion, NaiveInverter … EMInverter): the
//     inverse problem — recovering the original flow-size distribution
//     from the sampled per-flow counts, feeding the adaptive controller
//     and the streaming monitor's per-bin summaries.
//
//   - Ingestion (PacketSource, OpenSource, NewSliceSource): the unified
//     packet-source API behind the batch monitor (cmd/flowtop) and the
//     long-running daemon (cmd/flowrankd), which read it a block at a
//     time (NextBlock); Next is the facade's one-packet form of that read,
//     for callers that take a packet at a time. The daemon, with its
//     Prometheus metrics and NetFlow v5 export, and the pacing, looping
//     and live-capture sources are reached through cmd/flowrankd.
//
//   - Network-wide coordination (Topology, Allocator, AllocateRates,
//     NetworkRank): the multi-link generalization — budgeted switches,
//     routed flows, cSamp-style coordinated hash-range sampling, and
//     allocators that maximize model-predicted ranking quality over the
//     inverted per-link size distributions.
//
// Everything is deterministic given explicit seeds, uses only the standard
// library, and is exercised by the experiment harness in
// cmd/flowrank-bench, which regenerates every figure of the paper.
package flowrank

import (
	"flowrank/internal/adaptive"
	"flowrank/internal/core"
	"flowrank/internal/dist"
	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/invert"
	"flowrank/internal/metrics"
	"flowrank/internal/netsample"
	"flowrank/internal/packet"
	"flowrank/internal/packetgen"
	"flowrank/internal/sampler"
	"flowrank/internal/seqest"
	"flowrank/internal/sim"
	"flowrank/internal/source"
	"flowrank/internal/stream"
	"flowrank/internal/tracegen"
)

// ---------------------------------------------------------------------------
// Analytical models (paper §3–7)

// Model evaluates the paper's ranking and detection metrics for N flows
// with a given size distribution when the top T flows are of interest.
// Its top-t membership weights are the Poisson limit of the paper's
// binomial ones; its zero Kernel is the paper's Gaussian Eq. 2, and
// Workers sets the parallelism of one evaluation.
type Model = core.Model

// RateMethod selects the formula OptimalRate inverts.
type RateMethod = core.RateMethod

// RateExact inverts the exact misranking probability (Eq. 1).
const RateExact = core.RateExact

// OptimalRate returns the minimum sampling rate keeping the misranking
// probability of two flow sizes at or below target (Figs. 1–2).
func OptimalRate(s1, s2 int, target float64, method RateMethod) (float64, error) {
	return core.OptimalRate(s1, s2, target, method)
}

// ---------------------------------------------------------------------------
// Flow-size distributions

// Pareto is the paper's heavy-tailed flow size law.
type Pareto = dist.Pareto

// ParetoWithMean returns a Pareto distribution with the given mean and
// shape (panics if shape <= 1, where the mean is infinite).
func ParetoWithMean(mean, shape float64) Pareto { return dist.ParetoWithMean(mean, shape) }

// ---------------------------------------------------------------------------
// Flow identity and traces

// Key is the 5-tuple flow identity; Addr an IPv4 address; Proto an IP
// protocol number.
type (
	Key   = flow.Key
	Addr  = flow.Addr
	Proto = flow.Proto
)

// Well-known protocol numbers.
const (
	ProtoTCP = flow.ProtoTCP
	ProtoUDP = flow.ProtoUDP
)

// Aggregator maps packet 5-tuples to ranked flow identities.
type Aggregator = flow.Aggregator

// The paper's two flow definitions.
type (
	// FiveTuple ranks 5-tuple flows.
	FiveTuple = flow.FiveTuple
	// DstPrefix ranks destination prefixes (Bits = 24 in the paper).
	DstPrefix = flow.DstPrefix
)

// FlowRecord is a flow-level trace record.
type FlowRecord = flow.Record

// Packet is a packet-level trace record.
type Packet = packet.Packet

// TraceConfig describes a synthetic workload; use the preset constructors
// and adjust fields as needed.
type TraceConfig = tracegen.Config

// SprintFiveTuple returns the paper's 5-tuple Sprint workload: 2360
// flows/s, Pareto sizes with mean 9.6 packets (4.8 KB), 13 s mean
// duration.
func SprintFiveTuple(traceSeconds float64, seed uint64) TraceConfig {
	return tracegen.SprintFiveTuple(traceSeconds, seed)
}

// SprintPrefix24 returns the paper's /24 destination prefix workload: 350
// flows/s, mean 33.2 packets (16.6 KB).
func SprintPrefix24(traceSeconds float64, seed uint64) TraceConfig {
	return tracegen.SprintPrefix24(traceSeconds, seed)
}

// GenerateTrace synthesizes the flow-level trace for a workload.
func GenerateTrace(cfg TraceConfig) ([]FlowRecord, error) { return tracegen.Generate(cfg) }

// StreamPackets expands flow records to a time-ordered packet stream using
// the paper's uniform placement (§8.1), calling fn for every packet — the
// entry point for per-packet logic of the caller's own. Packets with equal
// timestamps arrive in order of their flows' start times, then record
// indices. fn runs on the calling goroutine, in order, while a second
// goroutine generates and sorts the next window of about 2^18 packets;
// StreamPackets returns once that goroutine has exited, with fn's error
// unchanged if fn failed. Memory is the concurrently active flows plus two
// windows (about 16 MB). To rank the expansion, StreamRank wires it
// straight into a streaming engine; to feed a PacketSource consumer,
// collect the packets into a slice and wrap it with NewSliceSource.
func StreamPackets(records []FlowRecord, seed uint64, fn func(Packet) error) error {
	return packetgen.Stream(records, seed, fn)
}

// ---------------------------------------------------------------------------
// Samplers and flow accounting

// Sampler decides whether the monitor keeps each packet, in trace order:
// Sample decides one packet, SampleBlock the next block of them from the
// same decision stream.
type Sampler = sampler.Sampler

// NewBernoulli returns the paper's random sampler: every packet is kept
// independently with probability p.
func NewBernoulli(p float64, seed uint64) Sampler { return sampler.NewBernoulli(p, seed) }

// FlowTable is exact per-bin flow accounting (the limited-memory
// tables are SpaceSavingTable and CountMinTable below); FlowEntry is one
// flow's totals.
type (
	FlowTable = flowtable.Table
	FlowEntry = flowtable.Entry
)

// NewFlowTable returns an empty exact table under agg.
func NewFlowTable(agg Aggregator) *FlowTable { return flowtable.New(agg) }

// FlowSummary is the common surface of every per-bin flow-accounting
// implementation: the exact tables (map and open-addressing flat) and
// the bounded sketches (Space-Saving, Count-Min + heap). AddAggregated
// accounts one packet, AddBatch a batch of keyed packets (what the
// stream engine calls); AppendAll lists the flows unranked, AppendEntries
// ranked, Lookup reads one. ErrorBound reports the summary's worst-case
// per-flow packet overcount (0 for the exact tables).
type FlowSummary = flowtable.Summary

// TableSpec selects a flow-accounting implementation for the streaming
// engine's sampled tables (StreamConfig.Tables) by kind and slot budget.
// The engine's original tables, the truth each bin is scored against, are
// exact whatever it names.
type TableSpec = flowtable.Spec

// FlatFlowTable is the allocation-free open-addressing exact table of
// the packet hot path; bit-compatible with FlowTable, timestamps
// included.
type FlatFlowTable = flowtable.Flat

// SpaceSavingTable and CountMinTable are the bounded summaries: O(k)
// memory regardless of how many flows the stream carries, with
// documented overcount bounds (deterministic for Space-Saving,
// probabilistic for Count-Min).
type (
	SpaceSavingTable = flowtable.SpaceSaving
	CountMinTable    = flowtable.CountMin
)

// ParseTableSpec maps a -table/-memory style flag pair ("exact",
// "spacesaving", "countmin"; slot budget, 0 = default) to a TableSpec.
func ParseTableSpec(kind string, slots int) (TableSpec, error) {
	return flowtable.ParseSpec(kind, slots)
}

// NewFlatFlowTable returns an exact open-addressing table pre-sized for
// sizeHint flows.
func NewFlatFlowTable(agg Aggregator, sizeHint int) *FlatFlowTable {
	return flowtable.NewFlat(agg, sizeHint)
}

// NewSpaceSavingTable returns a Space-Saving top-k summary with k
// counters.
func NewSpaceSavingTable(agg Aggregator, k int) *SpaceSavingTable {
	return flowtable.NewSpaceSaving(agg, k)
}

// NewCountMinTable returns a Count-Min sketch tracking the top k flows.
func NewCountMinTable(agg Aggregator, k int) *CountMinTable {
	return flowtable.NewCountMin(agg, k)
}

// ---------------------------------------------------------------------------
// Streaming monitor (sharded ingestion engine)

// StreamConfig configures the sharded streaming monitor: aggregation,
// sampler, bin width, top-list length, worker count, and optionally a
// per-bin Inverter and bounded sampled Tables. Every bin carries its
// stage timings (StreamBin.Stages); Obs, which makes them readable while
// the engine runs, is set by the monitor behind cmd/flowtop and
// cmd/flowrankd.
type StreamConfig = stream.Config

// StreamBin is the merged measurement of one non-empty bin: the original
// top list in ranking order (OrigTop: Key, Packets and Bytes, zero
// First/Last) and the original flow count (Flows), the exact sampled top
// list and the sampled flow count, and the paper's swapped-pair metrics.
// It carries no other per-flow state: the shards score their own flows
// against the top list and hand over Pairs.
// With an Inverter it carries the estimator's own result (Inversion) or
// its error (InversionErr); on every bin, Stages holds the flush's
// barrier, merge and invert timings.
type StreamBin = stream.BinResult

// StreamEngine is a running streaming monitor; Feed it packets in trace
// order — one per call, or a block of them, as PacketSource.NextBlock
// returns it — and Close it. Output is bit-identical for any worker count
// and however the packets are grouped into calls.
type StreamEngine = stream.Engine

// NewStreamEngine starts a streaming monitor that calls emit once per
// non-empty measurement bin, in bin order.
func NewStreamEngine(cfg StreamConfig, emit func(StreamBin) error) (*StreamEngine, error) {
	return stream.NewEngine(cfg, emit)
}

// StreamRank runs a flow-level trace through packet expansion and the
// streaming monitor in one call: GenerateTrace → StreamPackets → engine.
// The engine is fed on the calling goroutine while the expansion builds
// the next window of packets and the engine's shard workers ingest beside
// it.
func StreamRank(records []FlowRecord, seed uint64, cfg StreamConfig, emit func(StreamBin) error) error {
	eng, err := stream.NewEngine(cfg, emit)
	if err != nil {
		return err
	}
	if err := packetgen.Stream(records, seed, func(p Packet) error { return eng.Feed(p) }); err != nil {
		eng.Close()
		return err
	}
	return eng.Close()
}

// ---------------------------------------------------------------------------
// Packet sources (internal/source)

// PacketSource is the unified ingestion interface. NextBlock, every
// source's one read, fills a buffer with the next packets and returns how
// many — at least one with a nil error, or none with the error (io.EOF at
// a clean end), never both — without waiting for more than the first, so
// a slow stream still yields each packet as it arrives. Next is its
// one-packet form, for callers that read a packet at a time: NextBlock of
// one packet, copied out to the caller, and *p is left alone on an error.
// Close releases the source and, from another goroutine, unblocks a
// pending read. Trace and pcap replay, in-memory slices, and the daemon's
// pacing, looping and live-capture sources all read through NextBlock, so
// the batch monitor and the daemon measure the same stream; the monitor
// reads it 256 packets at a time and hands each block to
// StreamEngine.Feed whole.
type PacketSource interface {
	NextBlock(buf []Packet) (n int, err error)
	Next(p *Packet) error
	Close() error
}

// reader is the facade's PacketSource: an internal source, and the block
// of one packet its Next reads into.
type reader struct {
	source.PacketSource
	one [1]Packet
}

// Next reads the next packet: NextBlock of one, copied out.
//
//flowrank:hotpath
func (r *reader) Next(p *Packet) error {
	if _, err := r.NextBlock(r.one[:]); err != nil {
		return err
	}
	*p = r.one[0]
	return nil
}

// SliceSource is the in-memory source NewSliceSource returns (OpenSource's
// replays are only ever held as a PacketSource).
type SliceSource struct{ reader }

// OpenSource opens a trace file as a PacketSource (native format, or
// pcap when isPcap is set); the source owns the file handle.
func OpenSource(path string, isPcap bool) (PacketSource, error) {
	src, err := source.Open(path, isPcap)
	if err != nil {
		return nil, err
	}
	return &reader{PacketSource: src}, nil
}

// NewSliceSource yields an in-memory packet slice in order.
func NewSliceSource(pkts []Packet) *SliceSource {
	return &SliceSource{reader{PacketSource: source.NewSlice(pkts)}}
}

// ---------------------------------------------------------------------------
// Metrics

// PairCounts carries the paper's §5 ranking and §7 detection swapped-pair
// counts for one bin.
type PairCounts = metrics.PairCounts

// CountSwapped computes both metrics for a caller holding its own tables
// (StreamBin.Pairs already has them for an engine's bin): orig is every
// flow of the bin with its t highest-ranked flows first, in ranking
// order (the flows after them may come in any order, so a fully sorted
// list from SortEntries qualifies); sampled maps keys to sampled counts
// (FlowSummary.AppendCounts); t is the top-list length.
func CountSwapped(orig []FlowEntry, sampled map[Key]int64, t int) PairCounts {
	return metrics.CountSwapped(orig, sampled, t)
}

// SortEntries sorts entries into the canonical ranking order in place.
func SortEntries(entries []FlowEntry) []FlowEntry { return flowtable.SortEntries(entries) }

// ---------------------------------------------------------------------------
// Trace-driven simulation (paper §8)

// SimConfig configures a binned trace-driven experiment; Simulate runs it
// on the fast flow-bin engine.
type (
	SimConfig  = sim.Config
	SimResult  = sim.Result
	RateSeries = sim.RateSeries
	BinStat    = sim.BinStat
)

// Simulate runs the experiment: per-bin swapped-pair metrics with mean and
// standard deviation over independent sampling runs.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// ---------------------------------------------------------------------------
// Future-work extensions (paper §9)

// SizeEstimator refines sampled flow-size estimates with TCP sequence
// numbers (future work #2).
type SizeEstimator = seqest.Estimator

// NewSizeEstimator returns an estimator for traffic sampled at rate p.
func NewSizeEstimator(p float64) *SizeEstimator { return seqest.New(p) }

// Controller recommends sampling rates from observed traffic (future work
// #3): RecommendEstimate takes one bin's Inversion and returns the
// cheapest rate whose fitted model meets the target.
type Controller = adaptive.Controller

// ---------------------------------------------------------------------------
// Distribution inversion (internal/invert)

// Inverter estimates the original flow-size distribution from the
// per-flow packet counts a sampling monitor observed at rate p — the
// inverse problem of the analytical models. Inversion is its result: an
// estimated size law (Dist, which a Model takes) plus scalar summaries
// (mean, tail index, original flow count including the flows sampling
// missed).
type (
	Inverter  = invert.Estimator
	Inversion = invert.Estimate
)

// The four inverters, cheapest to most faithful: 1/p rescaling of the
// observed counts, Chabchoub-style tail rescaling with a Hill fit, the
// controller's parametric Pareto fixed point, and full EM/MLE inversion
// of the binomial thinning kernel over a discretized support. Each is an
// empty struct; StreamConfig.Inverter and ObserveNetwork accept any of
// them, and Controller.RecommendEstimate takes any of their estimates.
type (
	NaiveInverter      = invert.Naive
	TailInverter       = invert.TailScaling
	ParametricInverter = invert.Parametric
	EMInverter         = invert.EM
)

// ---------------------------------------------------------------------------
// Network-wide coordinated sampling (internal/netsample)

// Topology is a network of budgeted switches and directed links with
// deterministic shortest-path routing; NetworkSwitch and NetworkLink are
// its elements. RoutedFlow is one flow with its switch path.
type (
	Topology      = netsample.Topology
	NetworkSwitch = netsample.Switch
	NetworkLink   = netsample.Link
	RoutedFlow    = netsample.RoutedFlow
)

// NetworkDemand is an allocator's input — routed traffic aggregates plus
// per-link (inverted) size distributions; LinkState and PathStat are its
// rows. Allocation is a solved per-switch rate assignment with cSamp-style
// hash-range ownership; NetworkResult the simulated network-wide quality.
type (
	NetworkDemand = netsample.Demand
	LinkState     = netsample.LinkState
	PathStat      = netsample.PathStat
	Allocation    = netsample.Allocation
	NetworkResult = netsample.Result
)

// Allocator solves the per-switch budgeted sampling-rate assignment. The
// three implementations, weakest to strongest: UniformAllocator (every
// switch samples everything its budget allows), WaterfillAllocator
// (greedy whole-path ownership), CoordinatedAllocator (model-driven
// hash-range search maximizing predicted ranking quality over the
// inverted per-link size distributions).
type (
	Allocator            = netsample.Allocator
	UniformAllocator     = netsample.Uniform
	WaterfillAllocator   = netsample.GreedyWaterfill
	CoordinatedAllocator = netsample.Coordinated
)

// FatTreeTopology returns the 10-switch two-pod evaluation fabric with
// the given per-switch sampling budget.
func FatTreeTopology(budget float64) *Topology { return netsample.FatTree(budget) }

// GenerateNetworkWorkload synthesizes a routed multi-link workload from a
// trace configuration: flows arrive per cfg and are routed between
// deterministic pseudo-random edge-switch pairs.
func GenerateNetworkWorkload(topo *Topology, cfg TraceConfig) ([]RoutedFlow, error) {
	return netsample.GenerateWorkload(topo, cfg)
}

// ObserveNetwork probe-samples every link of the routed workload at
// probeRate, inverts each link's size distribution with the estimator,
// and returns the allocator-ready demand.
func ObserveNetwork(topo *Topology, flows []RoutedFlow, probeRate float64, est Inverter, topT int, seed uint64) (*NetworkDemand, error) {
	return netsample.Observe(topo, flows, probeRate, est, topT, seed)
}

// AllocateRates solves the demand with the given allocator: per-switch
// sampling rates within every budget plus hash-range ownership per path.
func AllocateRates(d *NetworkDemand, a Allocator) (*Allocation, error) { return a.Allocate(d) }

// NetworkOfferedLoads returns each switch's offered packet load under
// the demand — the natural base for budget sweeps ("sample x% of what
// you forward").
func NetworkOfferedLoads(d *NetworkDemand) map[string]float64 { return netsample.OfferedLoads(d) }

// NetworkRank simulates the routed workload under an allocation — every
// flow sampled once per traversed monitor, deduplicated by hash
// ownership — and scores network-wide ranking and top-k recovery.
func NetworkRank(topo *Topology, flows []RoutedFlow, a *Allocation, topT, runs int, seed uint64) (*NetworkResult, error) {
	return netsample.Simulate(topo, flows, a, topT, runs, seed)
}

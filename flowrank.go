// Package flowrank is a Go implementation of the models and experiments of
// "Ranking flows from sampled traffic" (Barakat, Iannaccone, Diot — INRIA
// RR-5266 / CoNEXT 2005): how well the largest flows on a link can be
// detected and ranked when the monitor samples packets with probability p.
//
// The package exposes six layers:
//
//   - Analytical models (Model, OptimalRate, MisrankExact): closed-form
//     and quadrature evaluation of the paper's swapped-pairs metrics for
//     ranking (§5) and detection (§7), under any flow-size distribution
//     (Pareto, bounded Pareto, exponential, Weibull, lognormal, empirical,
//     discrete, and mixtures of them).
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
//   - Ingestion and live monitoring (PacketSource, OpenSource,
//     PaceSource, NewLoopSource, MonitorConfig, DaemonConfig/NewDaemon):
//     the unified packet-source API behind the batch monitor
//     (cmd/flowtop) and the long-running daemon (cmd/flowrankd) with its
//     Prometheus metrics and NetFlow v5 export.
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
	"context"
	"io"
	"log/slog"

	"flowrank/internal/adaptive"
	"flowrank/internal/core"
	"flowrank/internal/daemon"
	"flowrank/internal/dist"
	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/invert"
	"flowrank/internal/metrics"
	"flowrank/internal/netsample"
	"flowrank/internal/obs"
	"flowrank/internal/packet"
	"flowrank/internal/packetgen"
	"flowrank/internal/pipeline"
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
// See the field documentation for options (Poisson tails, kernel choice).
type Model = core.Model

// Kernel selects the pairwise misranking kernel of a Model.
type Kernel = core.Kernel

// KernelHybrid switches from the paper's Gaussian Eq. 2 — a Model's zero
// value, applied everywhere — to the exact binomial probability where the
// Gaussian breaks (p·size small).
const KernelHybrid = core.KernelHybrid

// RateMethod selects the formula OptimalRate inverts.
type RateMethod = core.RateMethod

// RateExact inverts the exact misranking probability (Eq. 1).
const RateExact = core.RateExact

// MisrankExact returns the exact probability (Eq. 1) that sampling at rate
// p misranks flows of s1 and s2 packets.
func MisrankExact(s1, s2 int, p float64) float64 { return core.MisrankExact(s1, s2, p) }

// OptimalRate returns the minimum sampling rate keeping the misranking
// probability of two flow sizes at or below target (Figs. 1–2).
func OptimalRate(s1, s2 int, target float64, method RateMethod) (float64, error) {
	return core.OptimalRate(s1, s2, target, method)
}

// ---------------------------------------------------------------------------
// Flow-size distributions

// SizeDist is a flow-size distribution in packets.
type SizeDist = dist.SizeDist

// Distribution implementations.
type (
	// Pareto is the paper's heavy-tailed flow size law.
	Pareto = dist.Pareto
	// BoundedPareto truncates Pareto at a maximum size.
	BoundedPareto = dist.BoundedPareto
	// Exponential is a shifted exponential (light tail).
	Exponential = dist.Exponential
	// Weibull has a tail shorter than exponential for K > 1.
	Weibull = dist.Weibull
	// Lognormal is the short-tailed law used for the Abilene workload.
	Lognormal = dist.Lognormal
	// Empirical is the discrete distribution of an observed sample.
	Empirical = dist.Empirical
)

// ParetoWithMean returns a Pareto distribution with the given mean and
// shape (panics if shape <= 1, where the mean is infinite).
func ParetoWithMean(mean, shape float64) Pareto { return dist.ParetoWithMean(mean, shape) }

// ExponentialWithMean returns a shifted exponential with minimum size min
// and overall mean mean (panics if mean <= min).
func ExponentialWithMean(min, mean float64) Exponential {
	return dist.ExponentialWithMean(min, mean)
}

// NewEmpirical builds an empirical distribution from sample values.
func NewEmpirical(values []float64) *Empirical { return dist.NewEmpirical(values) }

// Mixture is the convex combination of several size laws — multi-class
// traffic such as an exponential body of mice under a Pareto elephant
// class. MixtureComponent pairs a law with its traffic share.
type (
	Mixture          = dist.Mixture
	MixtureComponent = dist.Component
)

// NewMixture builds a mixture of size laws, normalizing the component
// weights to sum to one.
func NewMixture(components ...MixtureComponent) (*Mixture, error) {
	return dist.NewMixture(components...)
}

// Discrete is a weighted discrete distribution over an arbitrary
// ascending support — the output type of the EM inversion, and the
// generalization of Empirical to (value, probability) atoms.
type Discrete = dist.Discrete

// NewDiscrete builds a discrete distribution from parallel value/weight
// slices (weights are normalized; zero-weight atoms dropped).
func NewDiscrete(values, weights []float64) *Discrete { return dist.NewDiscrete(values, weights) }

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

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return flow.ParseAddr(s) }

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
// entry point for per-packet logic of the caller's own. To rank the
// expansion, StreamRank wires it straight into a streaming engine; to
// feed a PacketSource consumer (replay decorators, the daemon), collect
// the packets into a slice and wrap it with NewSliceSource.
func StreamPackets(records []FlowRecord, seed uint64, fn func(Packet) error) error {
	return packetgen.Stream(records, seed, fn)
}

// ---------------------------------------------------------------------------
// Samplers and flow accounting

// Sampler decides packet by packet whether the monitor keeps a packet.
type Sampler = sampler.Sampler

// NewBernoulli returns the paper's random sampler: every packet is kept
// independently with probability p.
func NewBernoulli(p float64, seed uint64) Sampler { return sampler.NewBernoulli(p, seed) }

// FlowTable is exact per-bin flow accounting (the limited-memory
// tables are SpaceSavingTable and CountMinTable below). FlowObservation
// is one packet as FlowSummary.AddBatch takes it: the aggregated key,
// its FastHash, the timestamp and the size.
type (
	FlowTable       = flowtable.Table
	FlowEntry       = flowtable.Entry
	FlowObservation = flowtable.Observation
)

// NewFlowTable returns an empty exact table under agg.
func NewFlowTable(agg Aggregator) *FlowTable { return flowtable.New(agg) }

// FlowSummary is the common surface of every per-bin flow-accounting
// implementation: the exact tables (map and open-addressing flat) and
// the bounded sketches (Space-Saving, Count-Min + heap). AddAggregated
// accounts one packet, AddBatch a batch of FlowObservation (what the
// stream engine calls); AppendAll lists the flows unranked, AppendEntries
// ranked. ErrorBound reports the summary's worst-case per-flow packet
// overcount (0 for the exact tables).
type FlowSummary = flowtable.Summary

// TableSpec selects a flow-accounting implementation for the streaming
// engine (StreamConfig.Tables) by kind and slot budget.
type TableSpec = flowtable.Spec

// FlatFlowTable is the allocation-free open-addressing exact table of
// the packet hot path; bit-compatible with FlowTable.
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
// sizeHint flows; Release returns its slot arrays to the slab pool.
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
// sampler, bin width, top-list length, worker count.
type StreamConfig = stream.Config

// StreamBin is the merged measurement of one non-empty bin: every
// original flow with the top list ranked first (Orig[:TopT] is in ranking
// order, the flows after it are not sorted — SortEntries ranks them), the
// exact sampled top list, and the paper's swapped-pair metrics.
type StreamBin = stream.BinResult

// StreamEngine is a running streaming monitor; Feed it packets in trace
// order and Close it. Output is bit-identical for any worker count.
type StreamEngine = stream.Engine

// NewStreamEngine starts a streaming monitor that calls emit once per
// non-empty measurement bin, in bin order.
func NewStreamEngine(cfg StreamConfig, emit func(StreamBin) error) (*StreamEngine, error) {
	return stream.NewEngine(cfg, emit)
}

// NewStreamEngineContext is NewStreamEngine under a context: canceling
// ctx aborts the engine — Feed fails with the cancellation cause and the
// partial final bin is not flushed. A caller that wants the partial bin
// reported (a daemon draining on SIGTERM) stops feeding and calls Close
// instead of canceling.
func NewStreamEngineContext(ctx context.Context, cfg StreamConfig, emit func(StreamBin) error) (*StreamEngine, error) {
	return stream.NewEngineContext(ctx, cfg, emit)
}

// ErrStreamClosed is the identity Feed reports on an engine Closed or
// Aborted without a run error; a run that failed keeps returning its
// original error instead (test with errors.Is).
var ErrStreamClosed = stream.ErrClosed

// StreamRank runs a flow-level trace through packet expansion and the
// streaming monitor in one call: GenerateTrace → StreamPackets → engine.
func StreamRank(records []FlowRecord, seed uint64, cfg StreamConfig, emit func(StreamBin) error) error {
	eng, err := stream.NewEngine(cfg, emit)
	if err != nil {
		return err
	}
	if err := packetgen.Stream(records, seed, eng.Feed); err != nil {
		eng.Close()
		return err
	}
	return eng.Close()
}

// ---------------------------------------------------------------------------
// Packet sources and the monitoring daemon (internal/source, internal/daemon)

// PacketSource is the unified ingestion interface: Next fills the packet
// in place (io.EOF at a clean end), Close releases the source and, from
// another goroutine, unblocks a pending Next — the graceful-drain path.
// Trace replay, pcap replay, in-memory slices, the pacing and looping
// decorators, and live capture (in -tags live builds) all implement it,
// so the batch monitor and the daemon measure the same stream.
type PacketSource = source.PacketSource

// The source implementations the constructors below return: native-trace
// replay, the in-memory slice, and the pacing/looping replay decorators
// (OpenSource's pcap replay is only ever held as a PacketSource).
type (
	TraceSource = source.TraceSource
	SliceSource = source.Slice
	PacedSource = source.Paced
	LoopSource  = source.Loop
)

// Source error identities: ErrSourceClosed is wrapped by Next after
// Close; ErrLiveUnsupported by NewLiveSource when the build carries no
// live capture (no "live" tag, or a non-linux platform).
var (
	ErrSourceClosed    = source.ErrClosedSource
	ErrLiveUnsupported = source.ErrLiveUnsupported
)

// NewTraceSource replays a native flowrank trace from r; if r is an
// io.Closer (an *os.File) the source owns and closes it.
func NewTraceSource(r io.Reader) (*TraceSource, error) { return source.NewTraceSource(r) }

// OpenSource opens a trace file as a PacketSource (native format, or
// pcap when isPcap is set); the source owns the file handle.
func OpenSource(path string, isPcap bool) (PacketSource, error) { return source.Open(path, isPcap) }

// NewSliceSource yields an in-memory packet slice in order.
func NewSliceSource(pkts []Packet) *SliceSource { return source.NewSlice(pkts) }

// PaceSource throttles src to replay at a multiple of the trace's line
// rate (1 = real time); it panics unless speed is positive and finite.
func PaceSource(src PacketSource, speed float64) *PacedSource { return source.Pace(src, speed) }

// NewLoopSource replays a reopenable trace indefinitely, shifting
// timestamps monotonically with gap idle seconds between cycles.
func NewLoopSource(open func() (PacketSource, error), gap float64) (*LoopSource, error) {
	return source.NewLoop(open, gap)
}

// NewLiveSource captures from a network interface. It requires a build
// with -tags live on linux; other builds return ErrLiveUnsupported, so
// the default build stays hermetic.
func NewLiveSource(iface string, snapLen int) (PacketSource, error) {
	return source.NewLive(iface, snapLen)
}

// MonitorConfig describes one link monitor, the pipeline behind flowtop
// and flowrankd: a PacketSource, the sampling and binning parameters of
// the streaming engine, the optional inversion and closed-loop adaptation,
// the operational log and the bin journal.
type MonitorConfig = pipeline.Config

// DaemonConfig configures the long-running monitoring daemon: the monitor
// it runs (Monitor), the HTTP listen address for /metrics and /healthz,
// and an optional NetFlow v5 UDP export target.
type DaemonConfig = daemon.Config

// MonitorDaemon is a constructed daemon; Run serves until the context is
// canceled, then drains gracefully — the final partial bin is flushed
// into the metrics and the export before Run returns.
type MonitorDaemon = daemon.Daemon

// NewDaemon validates cfg and binds its listeners; Run releases them.
func NewDaemon(cfg DaemonConfig) (*MonitorDaemon, error) { return daemon.New(cfg) }

// ---------------------------------------------------------------------------
// Observability: pipeline self-instrumentation and the bin journal

// PipelineStats is the streaming engine's self-instrumentation surface
// (StreamConfig.Obs): preallocated alloc-free counters and fixed-bucket
// latency histograms for the reader, each shard worker and the
// bin-boundary flush. Attaching one never changes engine output — with
// or without it, results are bit-identical.
type PipelineStats = obs.PipelineStats

// NewPipelineStats preallocates pipeline instrumentation for an engine
// with the given shard worker count (it must cover StreamConfig.Workers).
func NewPipelineStats(shards int) *PipelineStats { return obs.NewPipelineStats(shards) }

// StageNanos is one bin's flush-stage timing breakdown (barrier, merge,
// inversion, emit, total), as recorded in the bin journal.
type StageNanos = obs.StageNanos

// BinJournalRecord is one measurement bin's machine-readable journal
// entry: stage timings, table kind, flow and packet counts, the
// swapped-pair fractions, and the optional inversion, adaptation and
// NetFlow-export outcomes. flowrankd -journal and flowtop -journal
// write one per bin.
type BinJournalRecord = pipeline.BinRecord

// NewBinJournal returns a structured logger writing journal records as
// JSON lines to w — the sink MonitorConfig.Journal expects.
func NewBinJournal(w io.Writer) *slog.Logger { return pipeline.NewJournal(w) }

// ValidateBinJournal checks a journal stream line-by-line against the
// BinJournalRecord schema and returns the number of bin records seen
// (cmd/journalcheck wraps it for shell pipelines).
func ValidateBinJournal(r io.Reader) (bins int, err error) { return pipeline.ValidateJournal(r) }

// ---------------------------------------------------------------------------
// Metrics

// PairCounts carries the paper's §5 ranking and §7 detection swapped-pair
// counts for one bin.
type PairCounts = metrics.PairCounts

// CountSwapped computes both metrics: orig is every flow of the bin with
// its t highest-ranked flows first, in ranking order — the flows after
// them may come in any order, so StreamBin.Orig qualifies as delivered and
// so does a fully sorted list (SortEntries) — sampled maps keys to
// sampled counts, t is the top-list length.
func CountSwapped(orig []FlowEntry, sampled map[Key]int64, t int) PairCounts {
	return metrics.CountSwapped(orig, sampled, t)
}

// SortEntries sorts entries into the canonical ranking order in place.
func SortEntries(entries []FlowEntry) []FlowEntry { return metrics.SortEntries(entries) }

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

// HillTailIndex estimates the Pareto tail index from the k largest sample
// values.
func HillTailIndex(sizes []float64, k int) (float64, error) { return invert.Hill(sizes, k) }

// ---------------------------------------------------------------------------
// Distribution inversion (internal/invert)

// Inverter estimates the original flow-size distribution from the
// per-flow packet counts a sampling monitor observed at rate p — the
// inverse problem of the analytical models. Inversion is its result: an
// estimated SizeDist plus scalar summaries (mean, tail index, original
// flow count including the flows sampling missed).
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

// MissProbability returns the probability that a flow drawn from d leaves
// no sampled packet at rate p: E[(1-p)^S] — the quantity that converts an
// observed flow count into an original one.
func MissProbability(d SizeDist, p float64) float64 { return invert.MissProbability(d, p) }

// KolmogorovDistance returns the Kolmogorov–Smirnov sup-distance between
// two size laws over the probe points (include both laws' atoms for step
// distributions; QuantileProbes builds a suitable grid).
func KolmogorovDistance(a, b SizeDist, probes []float64) float64 {
	return invert.KolmogorovDistance(a, b, probes)
}

// QuantileProbes returns an n-point probe grid spanning d's body and deep
// tail, for KolmogorovDistance.
func QuantileProbes(d SizeDist, n int) []float64 { return invert.QuantileProbes(d, n) }

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

// NetworkController is the dynamic per-bin control plane: it re-observes
// and re-allocates every measurement bin from that bin's inversion alone
// and caps the rates by the previous bin's realized loads; scoring an
// allocation is the caller's job (NetworkRank). NetworkBinResult is one
// control-loop step's outcome: the bin's demand and allocation.
type (
	NetworkController = netsample.Controller
	NetworkBinResult  = netsample.BinResult
)

// DynamicTraceConfig describes a time-varying workload: a base trace
// configuration plus a drift law re-drawing per-path demand bin to bin.
// DynamicPreset names the law ("churn" re-draws a fraction of the demand
// weights every bin, "diurnal" modulates them sinusoidally).
type (
	DynamicTraceConfig = tracegen.DynamicConfig
	DynamicPreset      = tracegen.Preset
)

// ChurnWorkload returns the churn-preset dynamic configuration over the
// base trace config with default drift parameters.
func ChurnWorkload(base TraceConfig, bins int) DynamicTraceConfig { return tracegen.Churn(base, bins) }

// GenerateDynamicNetworkWorkload synthesizes one routed workload per
// measurement bin under the dynamic configuration's drift law; pair
// demand weights drift bin to bin while routes stay fixed.
func GenerateDynamicNetworkWorkload(topo *Topology, dc DynamicTraceConfig) ([][]RoutedFlow, error) {
	return netsample.GenerateDynamicWorkload(topo, dc)
}

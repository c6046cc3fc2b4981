package flowrank

import "testing"

// TestFacadeSurface pins the exported facade surface: every symbol below
// is part of the public API contract, and referencing it here keeps the
// facadedoc analyzer's "referenced from a _test.go file" invariant honest
// for symbols whose behaviour is exercised through internal packages
// rather than through the facade aliases directly. Removing or renaming
// any of these is an API break and must fail compilation here first.
func TestFacadeSurface(t *testing.T) {
	// Analytical models: kernels, rate-inversion methods.
	var (
		_ RateMethod = RateGaussian
		_ Kernel     = KernelGaussian
	)
	_ = MisrankGaussian

	// Size distributions.
	var (
		_ SizeDist = Exponential{}
		_ *Empirical
		_ *Mixture
	)

	// Flow identity, protocols, trace presets.
	var (
		_ Aggregator
		_ Proto = ProtoICMP
		_ Proto = ProtoUDP
		_ TraceConfig
	)
	_ = SprintPrefix24
	_ = AbileneTrace

	// Samplers and flow accounting.
	_ = NewPeriodic
	_ = NewSampleAndHold
	var (
		_ *FlowTable
		_ TableSpec
		_ *FlatFlowTable
		_ *SpaceSavingTable
		_ *CountMinTable
	)

	// Streaming engine, sources, daemon.
	var (
		_ *StreamEngine
		_ *MonitorDaemon
	)
	_ = NewPcapSource

	// Metrics and trace-driven simulation.
	var (
		_ PairCounts
		_ *SimResult
		_ RateSeries
		_ BinStat
	)
	_ = TopKOverlap
	_ = SimulatePackets

	// Future-work extensions and inversion.
	var (
		_ *SizeEstimator
		_ *Controller
		_ Observation
		_ Inversion
	)

	// Network-wide coordinated sampling.
	var (
		_ *Topology
		_ NetworkSwitch
		_ NetworkLink
		_ RoutedFlow
		_ *NetworkDemand
		_ LinkState
		_ PathStat
		_ *Allocation
	)
	_ = NewTopology

	// Dynamic per-bin control plane.
	var (
		_ *NetworkController
		_ *NetworkBinResult
		_ *NetworkCurveCache
		_ DynamicTraceConfig
		_ DynamicPreset = DynamicChurn
		_ DynamicPreset = DynamicDiurnal
	)
	_ = NewNetworkCurveCache
	_ = NetworkSizeAwareRates
	_ = NetworkRankBudgeted
	_ = ChurnWorkload
	_ = DiurnalWorkload
	_ = GenerateDynamicNetworkWorkload
}

package daemon

import (
	"time"

	"flowrank/internal/pipeline"
	"flowrank/internal/promexp"
)

// binLatencyBuckets are the upper bounds (seconds) of the bin-processing
// latency histogram: the emit path of a bin — merge consumption, metric
// updates, NetFlow export, the adaptive-controller refit — from
// sub-millisecond exact-table bins up to multi-second model fits.
var binLatencyBuckets = []float64{
	0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30,
}

// metricSet is flowrankd's observability surface: the monitor's own
// operation — pkts/s in and sampled, per-bin ranking/detection quality,
// the inverted size distribution, the live sampling rate — exported the
// way Haddadi et al. argue a sampling exporter must be observable.
type metricSet struct {
	reg *promexp.Registry

	up        *promexp.Gauge
	sourceEOF *promexp.Gauge

	ingested *promexp.CounterFunc
	sampled  *promexp.Counter
	bins     *promexp.Counter

	samplingRate *promexp.Gauge
	flowsTracked *promexp.Gauge

	binFlows        *promexp.Gauge
	binSampledFlows *promexp.Gauge
	rankingPairs    *promexp.Gauge
	detectionPairs  *promexp.Gauge
	rankingFrac     *promexp.Gauge
	detectionFrac   *promexp.Gauge
	countErr        *promexp.Gauge

	invMean  *promexp.Gauge
	invTail  *promexp.Gauge
	invFlows *promexp.Gauge

	binLatency *promexp.Histogram

	nfRecords   *promexp.Counter
	nfDatagrams *promexp.Counter
	nfErrors    *promexp.Counter

	adaptChanges *promexp.Counter
}

// newMetricSet registers every flowrankd metric on a fresh registry, in
// the order they render on /metrics. The ingest counter is read from the
// pipeline at render time: the per-packet path pays an integer add for
// it, not a float CAS.
func newMetricSet(p *pipeline.Pipeline) *metricSet {
	r := promexp.NewRegistry()
	m := &metricSet{
		reg: r,
		up: r.NewGauge("flowrankd_up",
			"1 while the daemon is monitoring, 0 once it has drained."),
		sourceEOF: r.NewGauge("flowrankd_source_eof",
			"1 once the packet source was exhausted (trace replay finished)."),
		ingested: r.NewCounterFunc("flowrankd_packets_ingested_total",
			"Packets read from the source and fed to the streaming engine.",
			func() float64 { return float64(p.Ingested()) }),
		sampled: r.NewCounter("flowrankd_packets_sampled_total",
			"Packets the sampler kept, accumulated at bin boundaries."),
		bins: r.NewCounter("flowrankd_bins_total",
			"Non-empty measurement bins emitted (including the final partial bin on drain)."),
		samplingRate: r.NewGauge("flowrankd_sampling_rate",
			"Current packet sampling probability (moves under -adapt)."),
		flowsTracked: r.NewGauge("flowrankd_flows_tracked",
			"Flows held in the original flow tables of the last completed bin."),
		binFlows: r.NewGauge("flowrankd_bin_flows",
			"Original flows in the last completed bin."),
		binSampledFlows: r.NewGauge("flowrankd_bin_sampled_flows",
			"Flows with at least one sampled packet in the last completed bin."),
		rankingPairs: r.NewGauge("flowrankd_bin_ranking_pairs",
			"Swapped top-vs-rest pairs of the last bin (the paper's ranking metric numerator)."),
		detectionPairs: r.NewGauge("flowrankd_bin_detection_pairs",
			"Swapped detection pairs of the last bin (the paper's detection metric numerator)."),
		rankingFrac: r.NewGauge("flowrankd_bin_ranking_fraction",
			"Ranking swapped-pair fraction of the last bin."),
		detectionFrac: r.NewGauge("flowrankd_bin_detection_fraction",
			"Detection swapped-pair fraction of the last bin."),
		countErr: r.NewGauge("flowrankd_bin_count_err_pkts",
			"Worst-case per-flow packet overcount of the last bin (0 for exact tables)."),
		invMean: r.NewGauge("flowrankd_inverted_mean_pkts",
			"Estimated mean original flow size of the last inverted bin, in packets."),
		invTail: r.NewGauge("flowrankd_inverted_tail_index",
			"Fitted Pareto tail index of the last inverted bin (0 when unidentifiable)."),
		invFlows: r.NewGauge("flowrankd_inverted_flows",
			"Estimated original flow count of the last inverted bin, including flows sampling missed."),
		binLatency: r.NewHistogram("flowrankd_bin_process_seconds",
			"Bin emit-path latency: metrics update, NetFlow export and adaptive refit.",
			binLatencyBuckets),
		nfRecords: r.NewCounter("flowrankd_netflow_records_total",
			"NetFlow v5 records exported over UDP."),
		nfDatagrams: r.NewCounter("flowrankd_netflow_datagrams_total",
			"NetFlow v5 datagrams exported over UDP."),
		nfErrors: r.NewCounter("flowrankd_netflow_errors_total",
			"NetFlow UDP send failures (the daemon keeps monitoring)."),
		adaptChanges: r.NewCounter("flowrankd_adapt_changes_total",
			"Sampling-rate retunes applied by the closed adaptive loop."),
	}
	registerPipelineMetrics(r, p.Instrument())
	registerRuntimeMetrics(r, time.Now())
	return m
}

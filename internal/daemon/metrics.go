package daemon

import (
	"sync/atomic"
	"time"

	"flowrank/internal/obs"
	"flowrank/internal/pipeline"
	"flowrank/internal/promexp"
)

// binLatencyBounds are the upper bounds (ns) of the bin-processing latency
// histogram: the pipeline's own per-bin work once the engine has flushed
// the bin — the record, NetFlow export, the adaptive-controller refit;
// the journal's emit_ns, which ends before onBin updates /metrics — from
// sub-millisecond exact-table bins up to multi-second model fits. Not
// obs.DefaultLatencyBounds: dashboards read these ten le labels.
var binLatencyBounds = []int64{
	500_000, 1_000_000, 5_000_000, 10_000_000, 50_000_000,
	100_000_000, 500_000_000, 1_000_000_000, 5_000_000_000, 30_000_000_000,
}

// lastBin is what the last-bin gauges read: onBin publishes one per bin,
// whole, so a gauge callback is a field load with no lock and onBin never
// waits for a scrape. Everything in it is a value — the BinResult and
// BinRecord onBin is handed die when it returns.
type lastBin struct {
	// rec is the bin's record with its pointer fields cleared.
	rec pipeline.BinRecord
	// rankingPairs and detectionPairs are the swapped-pair counts (the
	// record carries only the fractions).
	rankingPairs, detectionPairs int64
	// inv is the last inversion that succeeded, this bin's or an earlier
	// one's: a bin too thin to invert must not zero the estimate.
	inv pipeline.InversionRecord
	// rate is the live sampling probability: the configured one until a
	// bin closes, then whatever the adaptive loop left in force.
	rate float64
}

// metricSet is flowrankd's observability surface: the monitor's own
// operation — pkts/s in and sampled, per-bin ranking/detection quality,
// the inverted size distribution, the live sampling rate — exported the
// way Haddadi et al. argue a sampling exporter must be observable. The
// counts are obs primitives; reg only renders them.
type metricSet struct {
	reg *promexp.Registry

	up, sourceEOF obs.Gauge
	sampled, bins obs.Counter
	last          atomic.Pointer[lastBin]
	binLatency    *obs.Histogram

	nfRecords, nfDatagrams, nfErrors obs.Counter
	adaptChanges                     obs.Counter
}

// newMetricSet registers every flowrankd metric on a fresh registry, in
// the order they render on /metrics.
func newMetricSet(p *pipeline.Pipeline) *metricSet {
	r := promexp.NewRegistry()
	m := &metricSet{reg: r, binLatency: obs.NewHistogram(binLatencyBounds)}
	m.last.Store(&lastBin{rate: p.Rate()})

	counter := func(name, help string, c *obs.Counter) {
		r.Counter(name, help, func() float64 { return float64(c.Load()) })
	}
	gauge := func(name, help string, g *obs.Gauge) {
		r.Gauge(name, help, func() float64 { return float64(g.Load()) })
	}
	lastGauge := func(name, help string, read func(*lastBin) float64) {
		r.Gauge(name, help, func() float64 { return read(m.last.Load()) })
	}

	gauge("flowrankd_up",
		"1 while the daemon is monitoring, 0 once it has drained.", &m.up)
	gauge("flowrankd_source_eof",
		"1 once the packet source was exhausted (trace replay finished).", &m.sourceEOF)
	counter("flowrankd_packets_ingested_total",
		"Packets read from the source and fed to the streaming engine.", p.Ingested())
	counter("flowrankd_packets_sampled_total",
		"Packets the sampler kept, accumulated at bin boundaries.", &m.sampled)
	counter("flowrankd_bins_total",
		"Non-empty measurement bins emitted (including the final partial bin on drain).", &m.bins)
	lastGauge("flowrankd_sampling_rate",
		"Current packet sampling probability (moves under -adapt).",
		func(l *lastBin) float64 { return l.rate })
	lastGauge("flowrankd_flows_tracked",
		"Flows held in the original and sampled flow tables of the last completed bin.",
		func(l *lastBin) float64 { return float64(l.rec.Flows + l.rec.SampledFlows) })
	lastGauge("flowrankd_bin_flows",
		"Original flows in the last completed bin.",
		func(l *lastBin) float64 { return float64(l.rec.Flows) })
	lastGauge("flowrankd_bin_sampled_flows",
		"Flows with at least one sampled packet in the last completed bin.",
		func(l *lastBin) float64 { return float64(l.rec.SampledFlows) })
	lastGauge("flowrankd_bin_ranking_pairs",
		"Swapped top-vs-rest pairs of the last bin (the paper's ranking metric numerator).",
		func(l *lastBin) float64 { return float64(l.rankingPairs) })
	lastGauge("flowrankd_bin_detection_pairs",
		"Swapped detection pairs of the last bin (the paper's detection metric numerator).",
		func(l *lastBin) float64 { return float64(l.detectionPairs) })
	lastGauge("flowrankd_bin_ranking_fraction",
		"Ranking swapped-pair fraction of the last bin.",
		func(l *lastBin) float64 { return l.rec.RankingFraction })
	lastGauge("flowrankd_bin_detection_fraction",
		"Detection swapped-pair fraction of the last bin.",
		func(l *lastBin) float64 { return l.rec.DetectionFraction })
	lastGauge("flowrankd_bin_count_err_pkts",
		"Worst-case per-flow packet overcount of the last bin (0 for exact tables).",
		func(l *lastBin) float64 { return float64(l.rec.CountErrPkts) })
	lastGauge("flowrankd_inverted_mean_pkts",
		"Estimated mean original flow size of the last inverted bin, in packets.",
		func(l *lastBin) float64 { return l.inv.MeanPkts })
	lastGauge("flowrankd_inverted_tail_index",
		"Fitted Pareto tail index of the last inverted bin (0 when unidentifiable).",
		func(l *lastBin) float64 { return l.inv.TailIndex })
	lastGauge("flowrankd_inverted_flows",
		"Estimated original flow count of the last inverted bin, including flows sampling missed.",
		func(l *lastBin) float64 { return l.inv.Flows })
	r.Histogram("flowrankd_bin_process_seconds",
		"Per-bin pipeline work after the engine's flush: NetFlow export and adaptive refit, before the metrics update.",
		1e9, m.binLatency.Snapshot)
	counter("flowrankd_netflow_records_total",
		"NetFlow v5 records exported over UDP.", &m.nfRecords)
	counter("flowrankd_netflow_datagrams_total",
		"NetFlow v5 datagrams exported over UDP.", &m.nfDatagrams)
	counter("flowrankd_netflow_errors_total",
		"NetFlow UDP send failures (the daemon keeps monitoring).", &m.nfErrors)
	counter("flowrankd_adapt_changes_total",
		"Sampling-rate retunes applied by the closed adaptive loop.", &m.adaptChanges)

	registerPipelineMetrics(r, p.Stats())
	registerRuntimeMetrics(r, time.Now())
	return m
}

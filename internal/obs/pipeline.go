package obs

// DefaultLatencyBounds is the nanosecond bucket ladder the pipeline
// histograms use: from a microsecond (one batch through a warm shard) to
// ten seconds (a closed-loop model refit inside emit), roughly
// half-decade steps.
var DefaultLatencyBounds = []int64{
	1_000,          // 1µs
	5_000,          // 5µs
	10_000,         // 10µs
	50_000,         // 50µs
	100_000,        // 100µs
	500_000,        // 500µs
	1_000_000,      // 1ms
	5_000_000,      // 5ms
	10_000_000,     // 10ms
	50_000_000,     // 50ms
	100_000_000,    // 100ms
	500_000_000,    // 500ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// ReaderStats instruments stage 1 of the stream engine: the single
// goroutine that makes every sampling decision and dispatches batches to
// the shard workers.
type ReaderStats struct {
	// Batches counts batch dispatches to shard workers.
	Batches Counter
	// Stalls counts dispatches that found the shard's queue full — the
	// engine's backpressure signal. A rising stall rate means the shard
	// workers, not the reader, cap throughput.
	Stalls Counter
	// Dispatch is the per-batch hand-off latency, including any stall
	// wait for queue space.
	Dispatch *Histogram
	// QueueDepthMax is the high-water mark of any shard queue observed
	// at dispatch time.
	QueueDepthMax Gauge
}

// ShardStats instruments one shard: its share of the key space, its
// ingest time, and the depth of its inbound queue.
type ShardStats struct {
	// Batches and Packets count what this shard's worker has ingested.
	// Packets trails the packets fed by whatever is still batched on the
	// reader side; a bin boundary and Close catch it up.
	Batches Counter
	Packets Counter
	// Ingest is the per-batch table-update time on this shard.
	Ingest *Histogram
	// Depth is the shard's queue depth as last observed by the reader at
	// dispatch.
	Depth Gauge
}

// FlushStats instruments the bin boundary: the barrier that drains every
// shard, the merge, the optional inversion, and the whole flush through
// the caller's emit.
type FlushStats struct {
	// Barrier is the time the shards work at the flush: the two barrier
	// steps, each from its dispatch to the last shard's answer (the
	// pending batches' ingest, each shard's scans for its two top lists,
	// then its scoring, sampled-table copy and reset, the shards in
	// parallel).
	Barrier *Histogram
	// Merge is the engine's own work around the two steps: merging the
	// shards' top lists and sizing the bin's counts buffer, then adding up
	// the shards' answers.
	Merge *Histogram
	// Invert is the per-bin flow-size-distribution inversion (zero-width
	// when no Inverter is configured).
	Invert *Histogram
	// Total is the whole flush, barrier through the caller's emit
	// callback (for the monitor pipeline: its per-bin work, the front
	// end's callback and the journal write).
	Total *Histogram
}

// PipelineStats is the stream engine's self-instrumentation surface: one
// ReaderStats, one ShardStats per shard worker, one FlushStats. All
// storage is preallocated by NewPipelineStats, so recording into any
// field is alloc-free. The engine records into one on every run — the
// caller's, or its own — and the stats never feed back into the
// measurement.
type PipelineStats struct {
	Reader ReaderStats
	Shards []ShardStats
	Flush  FlushStats
}

// NewPipelineStats preallocates instrumentation for an engine with the
// given shard worker count.
func NewPipelineStats(shards int) *PipelineStats {
	if shards < 1 {
		shards = 1
	}
	p := &PipelineStats{Shards: make([]ShardStats, shards)}
	p.Reader.Dispatch = NewHistogram(DefaultLatencyBounds)
	for i := range p.Shards {
		p.Shards[i].Ingest = NewHistogram(DefaultLatencyBounds)
	}
	p.Flush.Barrier = NewHistogram(DefaultLatencyBounds)
	p.Flush.Merge = NewHistogram(DefaultLatencyBounds)
	p.Flush.Invert = NewHistogram(DefaultLatencyBounds)
	p.Flush.Total = NewHistogram(DefaultLatencyBounds)
	return p
}

// IngestSnapshot merges the per-shard ingest histograms into one — the
// aggregate a single /metrics series exposes. Per-shard detail is in
// Shards only: neither /metrics nor the journal's BinRecord has a
// per-shard field yet (ROADMAP 6(a)).
func (p *PipelineStats) IngestSnapshot() HistSnapshot {
	snaps := make([]HistSnapshot, len(p.Shards))
	for i := range p.Shards {
		snaps[i] = p.Shards[i].Ingest.Snapshot()
	}
	return MergeHistSnapshots(snaps...)
}

// ShardPackets sums the per-shard packet counters.
func (p *PipelineStats) ShardPackets() int64 {
	var n int64
	for i := range p.Shards {
		n += p.Shards[i].Packets.Load()
	}
	return n
}

// StageNanos is one bin's flush-stage timing breakdown. The engine fills
// Barrier, Merge and Invert in the bin result it emits; the emit callback
// completes it (pipeline's journal record). There Emit spans the
// pipeline's own per-bin work — building the record, NetFlow export and
// the adaptive refit — and ends before the front end's callback runs, and
// Total is Barrier+Merge+Invert+Emit. FlushStats.Total, the daemon's
// flowrankd_pipeline_flush_seconds, additionally covers the front end's
// callback and the journal write.
type StageNanos struct {
	Barrier int64 `json:"barrier_ns"`
	Merge   int64 `json:"merge_ns"`
	Invert  int64 `json:"invert_ns"`
	Emit    int64 `json:"emit_ns"`
	Total   int64 `json:"total_ns"`
}

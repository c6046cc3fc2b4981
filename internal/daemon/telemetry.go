package daemon

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"flowrank/internal/obs"
	"flowrank/internal/promexp"
)

// This file is the daemon's self-telemetry: the Go runtime's view of the
// monitor (heap, GC, goroutines, build identity) and the stream engine's
// obs.PipelineStats put on /metrics. Every series is a closure registered
// on the one promexp registry, reading an obs primitive or the runtime at
// render time — nothing here touches the packet hot path; all cost is
// paid by the scraper, on the scraper's schedule.

// memStats is the part of runtime.MemStats the series read.
type memStats struct {
	heapAlloc, heapObjects, pauseTotalNs uint64
	numGC                                uint32
}

// memSampler caches runtime.ReadMemStats: a read stops the world
// briefly, so scrapes within ttl share one sample rather than letting a
// tight scrape loop turn telemetry into overhead.
type memSampler struct {
	mu   sync.Mutex
	ttl  time.Duration
	last time.Time
	ms   memStats
}

func newMemSampler(ttl time.Duration) *memSampler { return &memSampler{ttl: ttl} }

// sample returns the cached figures, refreshing them when stale. Four
// series call it per scrape, so it hands back the four words they read,
// not the 5.7 KB runtime.MemStats they came from.
func (s *memSampler) sample() memStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); s.last.IsZero() || now.Sub(s.last) > s.ttl {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.ms = memStats{ms.HeapAlloc, ms.HeapObjects, ms.PauseTotalNs, ms.NumGC}
		s.last = now
	}
	return s.ms
}

// buildLabels assembles the flowrank_build_info label set from the
// binary's embedded build metadata.
func buildLabels() map[string]string {
	labels := map[string]string{
		"goversion": runtime.Version(),
		"goos":      runtime.GOOS,
		"goarch":    runtime.GOARCH,
		"version":   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		labels["version"] = bi.Main.Version
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" {
				labels["revision"] = st.Value
			}
		}
	}
	return labels
}

// registerRuntimeMetrics exposes the monitor's own resource footprint:
// the paper's measurement-overhead axis, scraped rather than estimated.
func registerRuntimeMetrics(reg *promexp.Registry, start time.Time) {
	reg.Info("flowrank_build_info",
		"Build metadata of this flowrankd binary (value is always 1).",
		buildLabels())
	reg.Gauge("flowrankd_uptime_seconds",
		"Seconds since this daemon process constructed its metric surface.",
		func() float64 { return time.Since(start).Seconds() })
	reg.Gauge("flowrankd_goroutines",
		"Goroutines currently live in the daemon process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	mem := newMemSampler(time.Second)
	reg.Gauge("flowrankd_heap_alloc_bytes",
		"Heap bytes allocated and still in use.",
		func() float64 { return float64(mem.sample().heapAlloc) })
	reg.Gauge("flowrankd_heap_objects",
		"Heap objects currently live.",
		func() float64 { return float64(mem.sample().heapObjects) })
	reg.Counter("flowrankd_gc_cycles_total",
		"Completed garbage-collection cycles.",
		func() float64 { return float64(mem.sample().numGC) })
	reg.Counter("flowrankd_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(mem.sample().pauseTotalNs) / 1e9 })
}

// registerPipelineMetrics projects the stream engine's per-stage
// instrumentation onto /metrics, its nanosecond ladders rendered in
// seconds. Per-shard detail is aggregated here (promexp has no variable
// labels) and the journal's BinRecord has no per-shard field either:
// per-shard series are ROADMAP 6(a).
func registerPipelineMetrics(reg *promexp.Registry, ps *obs.PipelineStats) {
	reg.Counter("flowrankd_pipeline_packets_total",
		"Packets the shard workers accounted (every packet fed to the engine, sampled or not).",
		func() float64 { return float64(ps.ShardPackets()) })
	reg.Counter("flowrankd_pipeline_reader_batches_total",
		"Packet batches the reader dispatched to shard workers.",
		func() float64 { return float64(ps.Reader.Batches.Load()) })
	reg.Counter("flowrankd_pipeline_reader_stalls_total",
		"Dispatches that found a shard queue full — the engine's backpressure signal.",
		func() float64 { return float64(ps.Reader.Stalls.Load()) })
	reg.Gauge("flowrankd_pipeline_queue_depth_max",
		"High-water mark of any shard queue depth observed at dispatch.",
		func() float64 { return float64(ps.Reader.QueueDepthMax.Load()) })
	reg.Histogram("flowrankd_pipeline_dispatch_seconds",
		"Reader batch hand-off latency, including stall waits.",
		1e9, ps.Reader.Dispatch.Snapshot)
	reg.Histogram("flowrankd_pipeline_ingest_seconds",
		"Shard per-batch table-update time, aggregated over shards.",
		1e9, ps.IngestSnapshot)
	reg.Histogram("flowrankd_pipeline_barrier_seconds",
		"Bin-flush barrier: dispatching the flush and collecting every shard summary.",
		1e9, ps.Flush.Barrier.Snapshot)
	reg.Histogram("flowrankd_pipeline_merge_seconds",
		"Merging the shard summaries into the bin result: concatenation, top-list selection and the swapped-pair count.",
		1e9, ps.Flush.Merge.Snapshot)
	reg.Histogram("flowrankd_pipeline_invert_seconds",
		"Per-bin flow-size-distribution inversion.",
		1e9, ps.Flush.Invert.Snapshot)
	reg.Histogram("flowrankd_pipeline_flush_seconds",
		"Whole bin flush, barrier through emit.",
		1e9, ps.Flush.Total.Snapshot)
}

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
// monitor (heap, GC, goroutines, build identity) and the bridge that
// projects the stream engine's obs.PipelineStats onto /metrics. Both are
// render-time callbacks — nothing here touches the packet hot path; all
// cost is paid by the scraper, on the scraper's schedule.

// memSampler caches runtime.ReadMemStats: a read stops the world
// briefly, so scrapes within ttl share one sample rather than letting a
// tight scrape loop turn telemetry into overhead.
type memSampler struct {
	mu   sync.Mutex
	ttl  time.Duration
	last time.Time
	ms   runtime.MemStats
}

func newMemSampler(ttl time.Duration) *memSampler { return &memSampler{ttl: ttl} }

// sample returns the cached MemStats, refreshing it when stale.
func (s *memSampler) sample() runtime.MemStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); s.last.IsZero() || now.Sub(s.last) > s.ttl {
		runtime.ReadMemStats(&s.ms)
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
	reg.NewInfo("flowrank_build_info",
		"Build metadata of this flowrankd binary (value is always 1).",
		buildLabels())
	reg.NewGaugeFunc("flowrankd_uptime_seconds",
		"Seconds since this daemon process constructed its metric surface.",
		func() float64 { return time.Since(start).Seconds() })
	reg.NewGaugeFunc("flowrankd_goroutines",
		"Goroutines currently live in the daemon process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	mem := newMemSampler(time.Second)
	reg.NewGaugeFunc("flowrankd_heap_alloc_bytes",
		"Heap bytes allocated and still in use.",
		func() float64 { return float64(mem.sample().HeapAlloc) })
	reg.NewGaugeFunc("flowrankd_heap_objects",
		"Heap objects currently live.",
		func() float64 { return float64(mem.sample().HeapObjects) })
	reg.NewCounterFunc("flowrankd_gc_cycles_total",
		"Completed garbage-collection cycles.",
		func() float64 { return float64(mem.sample().NumGC) })
	reg.NewCounterFunc("flowrankd_gc_pause_seconds_total",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(mem.sample().PauseTotalNs) / 1e9 })
}

// nsHistFunc adapts an obs nanosecond histogram snapshot into the
// seconds-valued shape promexp renders.
func nsHistFunc(snap func() obs.HistSnapshot) func() promexp.HistogramSnapshot {
	return func() promexp.HistogramSnapshot {
		s := snap()
		out := promexp.HistogramSnapshot{
			Bounds: make([]float64, len(s.Bounds)),
			Counts: s.Counts,
			Sum:    float64(s.Sum) / 1e9,
		}
		for i, b := range s.Bounds {
			out.Bounds[i] = float64(b) / 1e9
		}
		return out
	}
}

// registerPipelineMetrics projects the stream engine's per-stage
// instrumentation onto /metrics. Per-shard detail is aggregated here
// (promexp has no labels); the journal keeps the per-shard view.
func registerPipelineMetrics(reg *promexp.Registry, ps *obs.PipelineStats) {
	reg.NewCounterFunc("flowrankd_pipeline_packets_total",
		"Packets the shard workers accounted (every packet fed to the engine, sampled or not).",
		func() float64 { return float64(ps.ShardPackets()) })
	reg.NewCounterFunc("flowrankd_pipeline_reader_batches_total",
		"Packet batches the reader dispatched to shard workers (0 on the inline single-worker engine).",
		func() float64 { return float64(ps.Reader.Batches.Load()) })
	reg.NewCounterFunc("flowrankd_pipeline_reader_stalls_total",
		"Dispatches that found a shard queue full — the engine's backpressure signal.",
		func() float64 { return float64(ps.Reader.Stalls.Load()) })
	reg.NewGaugeFunc("flowrankd_pipeline_queue_depth_max",
		"High-water mark of any shard queue depth observed at dispatch.",
		func() float64 { return float64(ps.Reader.QueueDepthMax.Load()) })
	reg.NewHistogramFunc("flowrankd_pipeline_dispatch_seconds",
		"Reader batch hand-off latency, including stall waits.",
		nsHistFunc(ps.Reader.Dispatch.Snapshot))
	reg.NewHistogramFunc("flowrankd_pipeline_ingest_seconds",
		"Shard per-batch table-update time, aggregated over shards.",
		nsHistFunc(ps.IngestSnapshot))
	reg.NewHistogramFunc("flowrankd_pipeline_barrier_seconds",
		"Bin-flush barrier: dispatching the flush and collecting every shard summary.",
		nsHistFunc(ps.Flush.Barrier.Snapshot))
	reg.NewHistogramFunc("flowrankd_pipeline_merge_seconds",
		"Merging the shard summaries into the bin result: concatenation, top-list selection and the swapped-pair count.",
		nsHistFunc(ps.Flush.Merge.Snapshot))
	reg.NewHistogramFunc("flowrankd_pipeline_invert_seconds",
		"Per-bin flow-size-distribution inversion.",
		nsHistFunc(ps.Flush.Invert.Snapshot))
	reg.NewHistogramFunc("flowrankd_pipeline_flush_seconds",
		"Whole bin flush, barrier through emit.",
		nsHistFunc(ps.Flush.Total.Snapshot))
}

// Package obs is the monitor's self-instrumentation layer: preallocated,
// allocation-free counters, gauges and fixed-bucket nanosecond histograms
// that the packet pipeline records into without ever touching the heap.
// The paper's position — and Haddadi et al.'s, on NetFlow exporter
// overhead — is that a measurement system's own cost is a first-class
// measurement axis; this package is how flowrank measures itself without
// perturbing what it measures.
//
// Every update primitive (Counter.Inc/Add, Gauge.Set/SetMax,
// Histogram.Observe, Nanotime) is annotated //flowrank:hotpath, so the
// flowrank-lint hotpath analyzer statically verifies the instrumentation
// itself allocates nothing and may be called from other annotated hot
// paths (the shard ingest loop, the flow-table Add paths). Timing reads
// go through Nanotime — a monotonic delta against the process epoch — so
// the determinism-critical packages never call time.Now themselves and
// the wallclock analyzer's contract holds: wall time feeds telemetry
// only, never results.
//
// These are the module's only Counter, Gauge and Histogram: the daemon's
// own per-bin counts are obs primitives too, and internal/promexp renders
// whatever a registered closure reads without keeping a copy. Readers (a
// Prometheus scrape, the per-bin journal) Load a value or take a
// Snapshot; snapshots allocate, updates do not. All updates and reads are
// safe for concurrent use.
package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// epoch anchors Nanotime. time.Since reads the monotonic clock, so the
// deltas are immune to wall-clock steps.
var epoch = time.Now()

// Nanotime returns monotonic nanoseconds since process start — the
// pipeline's only clock. It is alloc-free and safe on any hot path.
//
//flowrank:hotpath
func Nanotime() int64 { return int64(time.Since(epoch)) }

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//flowrank:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; a counter never goes down).
//
//flowrank:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
//
//flowrank:hotpath
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous value (a queue depth, a last-bin timing).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
//
//flowrank:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger — a high-water mark.
//
//flowrank:hotpath
func (g *Gauge) SetMax(v int64) {
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Load returns the current value.
//
//flowrank:hotpath
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts int64 observations (nanoseconds, by convention) into
// fixed upper-bound buckets plus an implicit +Inf overflow bucket, with a
// running sum. All storage is allocated at construction; Observe is
// alloc-free and wait-free.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; the last is the overflow
	sum    atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// It panics on empty or unsorted bounds: histogram construction is
// program initialization, and a bad ladder is a programmer error.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	h := &Histogram{bounds: append([]int64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one value. The scan is linear: latency ladders are a
// dozen buckets and the branch predictor learns the common bucket, which
// beats a binary search (and sort.Search's closure would allocate).
//
//flowrank:hotpath
func (h *Histogram) Observe(v int64) {
	if len(h.counts) == 0 {
		return // zero-value histogram: drop rather than crash the pipeline
	}
	h.sum.Add(v)
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistSnapshot is a point-in-time copy of a histogram, safe to render or
// aggregate while updates continue. Counts holds one entry per bound plus
// the +Inf overflow last; entries are per-bucket, not cumulative.
type HistSnapshot struct {
	Bounds []int64
	Counts []uint64
	Sum    int64
}

// Count returns the snapshot's total observation count.
func (s HistSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Snapshot copies the histogram's current state. Concurrent Observes may
// land between bucket reads — each bucket is individually exact, and the
// next scrape sees anything a racing update left out.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// MergeHistSnapshots element-wise sums snapshots taken from histograms
// with identical bounds (the per-shard ingest histograms) into one.
func MergeHistSnapshots(snaps ...HistSnapshot) HistSnapshot {
	var out HistSnapshot
	for _, s := range snaps {
		if out.Bounds == nil {
			out.Bounds = s.Bounds
			out.Counts = make([]uint64, len(s.Counts))
		}
		for i := range s.Counts {
			out.Counts[i] += s.Counts[i]
		}
		out.Sum += s.Sum
	}
	return out
}

package promexp

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
)

// This file holds the callback-valued metrics: series whose value is
// computed at render (scrape) time instead of pushed through Set/Add.
// They exist to bridge external state — the obs pipeline counters the
// stream engine updates on its hot path, runtime.MemStats — onto the
// /metrics page without double-accounting or a copy loop. The callback
// runs under the registry render, so it must be cheap and must not block.

// labelRE is the Prometheus label-name grammar.
var labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// CounterFunc is a counter whose value is read by callback at render
// time. The callback must be monotonically non-decreasing across calls —
// promexp cannot verify that, the contract is the caller's.
type CounterFunc struct {
	name, help string
	fn         func() float64
}

// NewCounterFunc registers a render-time counter backed by fn.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) *CounterFunc {
	if fn == nil {
		panic(fmt.Sprintf("promexp: nil callback for counter %q", name))
	}
	c := &CounterFunc{name: name, help: help, fn: fn}
	r.register(c)
	return c
}

// Value reads the counter through its callback.
func (c *CounterFunc) Value() float64 { return c.fn() }

func (c *CounterFunc) fqName() string { return c.name }

func (c *CounterFunc) render(b *bytes.Buffer) {
	renderHeader(b, c.name, c.help, "counter")
	fmt.Fprintf(b, "%s %s\n", c.name, formatValue(c.fn()))
}

// GaugeFunc is a gauge whose value is read by callback at render time.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc registers a render-time gauge backed by fn.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	if fn == nil {
		panic(fmt.Sprintf("promexp: nil callback for gauge %q", name))
	}
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.register(g)
	return g
}

func (g *GaugeFunc) fqName() string { return g.name }

func (g *GaugeFunc) render(b *bytes.Buffer) {
	renderHeader(b, g.name, g.help, "gauge")
	fmt.Fprintf(b, "%s %s\n", g.name, formatValue(g.fn()))
}

// HistogramSnapshot is the render-time shape a HistogramFunc callback
// returns: ascending upper bounds, per-bucket (non-cumulative) counts
// with the +Inf overflow last (len(Bounds)+1 entries), and the running
// sum. It mirrors obs.HistSnapshot after unit conversion.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// HistogramFunc is a histogram whose buckets are read by callback at
// render time — the bridge for histograms maintained elsewhere (the obs
// pipeline's nanosecond ladders) that would be double-counted if
// re-observed into a promexp.Histogram.
type HistogramFunc struct {
	name, help string
	fn         func() HistogramSnapshot
}

// NewHistogramFunc registers a render-time histogram backed by fn. The
// callback's snapshot must satisfy len(Counts) == len(Bounds)+1; a
// malformed snapshot renders only the +Inf bucket it can prove, never
// panics mid-scrape.
func (r *Registry) NewHistogramFunc(name, help string, fn func() HistogramSnapshot) *HistogramFunc {
	if fn == nil {
		panic(fmt.Sprintf("promexp: nil callback for histogram %q", name))
	}
	h := &HistogramFunc{name: name, help: help, fn: fn}
	r.register(h)
	return h
}

func (h *HistogramFunc) fqName() string { return h.name }

func (h *HistogramFunc) render(b *bytes.Buffer) {
	renderHeader(b, h.name, h.help, "histogram")
	s := h.fn()
	var cum uint64
	for i, bound := range s.Bounds {
		if i >= len(s.Counts) {
			break
		}
		cum += s.Counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.name, formatValue(bound), cum)
	}
	if len(s.Counts) > len(s.Bounds) {
		cum += s.Counts[len(s.Counts)-1]
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", h.name, formatValue(s.Sum))
	fmt.Fprintf(b, "%s_count %d\n", h.name, cum)
}

// Info is the Prometheus info-metric idiom: a gauge fixed at 1 whose
// constant labels carry build metadata (version, go runtime) that joins
// onto other series in queries.
type Info struct {
	name, help string
	labels     string // pre-rendered {k="v",...} block
}

// NewInfo registers an info metric with the given constant labels. Label
// order in the exposition is sorted by key for a deterministic page.
// Invalid label names panic, like invalid metric names.
func (r *Registry) NewInfo(name, help string, labels map[string]string) *Info {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelRE.MatchString(k) {
			panic(fmt.Sprintf("promexp: invalid label name %q on %q", k, name))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lb bytes.Buffer
	for i, k := range keys {
		if i > 0 {
			lb.WriteByte(',')
		}
		// %q escapes backslash, quote and newline exactly as the text
		// format's label-value rules require.
		fmt.Fprintf(&lb, "%s=%q", k, labels[k])
	}
	in := &Info{name: name, help: help, labels: lb.String()}
	r.register(in)
	return in
}

func (in *Info) fqName() string { return in.name }

func (in *Info) render(b *bytes.Buffer) {
	renderHeader(b, in.name, in.help, "gauge")
	if in.labels == "" {
		fmt.Fprintf(b, "%s 1\n", in.name)
		return
	}
	fmt.Fprintf(b, "%s{%s} 1\n", in.name, in.labels)
}

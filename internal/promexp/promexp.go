// Package promexp is a minimal, dependency-free renderer of the Prometheus
// text exposition format (version 0.0.4). It stores no sample: a series
// is a name, a help line and a callback read at scrape time, registered
// on a Registry that renders the page any Prometheus-compatible scraper
// ingests and serves it as an http.Handler. Counts live in internal/obs
// primitives (or wherever the callback reads them) — the module has one
// Counter, one Gauge and one Histogram type, and they are obs's.
//
// It implements exactly the subset the flowrankd daemon needs: unlabeled
// counters, gauges and histograms, plus the constant-label info idiom.
// Callbacks run inside WriteTo, one after another on the scraping
// goroutine, so they must be cheap, must not block, and must be safe to
// call while the monitor updates what they read; the registry lock is
// held only to copy the series list, so a scrape never blocks the packet
// hot path.
package promexp

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"flowrank/internal/obs"
)

var (
	// nameRE is the Prometheus metric-name grammar.
	nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	// labelRE is the Prometheus label-name grammar.
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// series is one registered time series family: value is set for counters,
// gauges and info metrics, hist (with per) for histograms.
type series struct {
	name, help, typ string
	labels          string // pre-rendered {k="v",...} block, info only
	value           func() float64
	hist            func() obs.HistSnapshot
	per             float64
}

// Registry holds registered series and renders them in registration
// order. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu    sync.Mutex
	ss    []series
	names map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// register panics on an invalid or duplicate name or a missing callback —
// registration is program initialization, and each is a programmer error
// no caller can meaningfully handle.
func (r *Registry) register(s series) {
	if !nameRE.MatchString(s.name) {
		panic(fmt.Sprintf("promexp: invalid metric name %q", s.name))
	}
	if s.value == nil && s.hist == nil {
		panic(fmt.Sprintf("promexp: nil callback for %s %q", s.typ, s.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[s.name]; dup {
		panic(fmt.Sprintf("promexp: duplicate metric name %q", s.name))
	}
	r.names[s.name] = struct{}{}
	r.ss = append(r.ss, s)
}

// Counter registers a counter read through fn at every render. fn must be
// monotonically non-decreasing across calls — promexp cannot verify that,
// the contract is the caller's.
func (r *Registry) Counter(name, help string, fn func() float64) {
	r.register(series{name: name, help: help, typ: "counter", value: fn})
}

// Gauge registers a gauge read through fn at every render.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	r.register(series{name: name, help: help, typ: "gauge", value: fn})
}

// Histogram registers a histogram whose buckets fn snapshots at every
// render. Bounds and sum are divided by per on the way out: 1e9 renders a
// nanosecond ladder in seconds (division, not a multiplication by 1e-9,
// so that 500_000 ns prints as le="0.0005"). A snapshot must satisfy
// len(Counts) == len(Bounds)+1; a malformed one renders only the buckets
// it has counts for and the +Inf bucket it can prove, never panics
// mid-scrape.
func (r *Registry) Histogram(name, help string, per float64, fn func() obs.HistSnapshot) {
	if !(per > 0) {
		panic(fmt.Sprintf("promexp: histogram %q unit divisor %g, want > 0", name, per))
	}
	r.register(series{name: name, help: help, typ: "histogram", hist: fn, per: per})
}

// Info registers the Prometheus info-metric idiom: a gauge fixed at 1
// whose constant labels carry build metadata (version, go runtime) that
// joins onto other series in queries. Labels render sorted by key for a
// deterministic page; an invalid label name panics like an invalid metric
// name.
func (r *Registry) Info(name, help string, labels map[string]string) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelRE.MatchString(k) {
			panic(fmt.Sprintf("promexp: invalid label name %q on %q", k, name))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := series{name: name, help: help, typ: "gauge", value: func() float64 { return 1 }}
	for i, k := range keys {
		// %q escapes backslash, quote and newline exactly as the text
		// format's label-value rules require.
		keys[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	if len(keys) > 0 {
		s.labels = "{" + strings.Join(keys, ",") + "}"
	}
	r.register(s)
}

// WriteTo renders every series in the Prometheus text format, in
// registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	ss := r.ss[:len(r.ss):len(r.ss)] // registered series are never rewritten
	r.mu.Unlock()
	var b bytes.Buffer
	for i := range ss {
		ss[i].render(&b)
	}
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

// ContentType is the exposition-format content type scrapers expect.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the rendered registry — the
// /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.WriteTo(w)
	})
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the text format.
func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

func (s *series) render(b *bytes.Buffer) {
	if s.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", s.name, escapeHelp(s.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", s.name, s.typ)
	if s.hist == nil {
		fmt.Fprintf(b, "%s%s %s\n", s.name, s.labels, formatValue(s.value()))
		return
	}
	snap := s.hist()
	var cum uint64
	for i, bound := range snap.Bounds {
		if i >= len(snap.Counts) {
			break
		}
		cum += snap.Counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", s.name, formatValue(float64(bound)/s.per), cum)
	}
	if len(snap.Counts) > len(snap.Bounds) {
		cum += snap.Counts[len(snap.Counts)-1]
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", s.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", s.name, formatValue(float64(snap.Sum)/s.per))
	fmt.Fprintf(b, "%s_count %d\n", s.name, cum)
}

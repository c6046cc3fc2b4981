package promexp

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flowrank/internal/obs"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// count and level are how a caller puts an obs primitive on the page.
func count(c *obs.Counter) func() float64 { return func() float64 { return float64(c.Load()) } }
func level(g *obs.Gauge) func() float64   { return func() float64 { return float64(g.Load()) } }

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// TestTextFormat pins the exposition format: HELP/TYPE headers, sample
// lines, registration order.
func TestTextFormat(t *testing.T) {
	r := NewRegistry()
	var c obs.Counter
	r.Counter("pkts_total", "Packets seen.", count(&c))
	r.Gauge("rate", "Current sampling rate.", func() float64 { return 0.125 })
	c.Add(3)
	c.Inc()
	got := render(t, r)
	want := "# HELP pkts_total Packets seen.\n" +
		"# TYPE pkts_total counter\n" +
		"pkts_total 4\n" +
		"# HELP rate Current sampling rate.\n" +
		"# TYPE rate gauge\n" +
		"rate 0.125\n"
	if got != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", got, want)
	}
}

// TestCounterMonotonic: successive renders of a counter over an
// obs.Counter never step back while writers advance it — what a scraper's
// rate() assumes. (The primitive takes an int64 and documents non-negative
// deltas; there is no float Add whose sign the renderer could police.)
func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	var c obs.Counter
	r.Counter("c_total", "", count(&c))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Add(3)
			}
		}
	}()
	prev := -1.0
	for i := 0; i < 200; i++ {
		raw := strings.TrimPrefix(strings.TrimSpace(render(t, r)), "# TYPE c_total counter\nc_total ")
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < prev {
			t.Fatalf("render %d: %q after %g (%v)", i, raw, prev, err)
		}
		prev = v
	}
	close(stop)
	wg.Wait()
}

// TestGauge: a gauge follows its primitive down as well as up, and the
// values no integer holds — what a ratio or a failed fit hands a callback
// — render as the format's three special tokens.
func TestGauge(t *testing.T) {
	r := NewRegistry()
	var g obs.Gauge
	r.Gauge("g", "", level(&g))
	g.Set(7)
	g.Set(-2)
	if got := render(t, r); !strings.Contains(got, "g -2\n") {
		t.Errorf("gauge did not follow Set:\n%s", got)
	}
	v := math.Inf(1)
	r.Gauge("special", "", func() float64 { return v })
	for _, tc := range []struct {
		v    float64
		want string
	}{{math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"}, {math.NaN(), "NaN"}} {
		v = tc.v
		if got := render(t, r); !strings.Contains(got, "special "+tc.want+"\n") {
			t.Errorf("%g not rendered as %s:\n%s", tc.v, tc.want, got)
		}
	}
}

// TestCallbacksReadEveryRender: a series stores nothing — its callback
// runs at render time, every render.
func TestCallbacksReadEveryRender(t *testing.T) {
	r := NewRegistry()
	n := 0.0
	r.Counter("cb_total", "Callback counter.", func() float64 { n++; return n })
	r.Gauge("cb_gauge", "Callback gauge.", func() float64 { return n * 10 })
	if got := render(t, r); !strings.Contains(got, "cb_total 1\n") || !strings.Contains(got, "cb_gauge 10\n") {
		t.Errorf("first render:\n%s", got)
	}
	if got := render(t, r); !strings.Contains(got, "cb_total 2\n") || !strings.Contains(got, "cb_gauge 20\n") {
		t.Errorf("second render did not re-invoke callbacks:\n%s", got)
	}
	if !strings.Contains(render(t, r), "# TYPE cb_total counter\n") {
		t.Error("Counter not typed counter")
	}
}

// TestHistogram pins cumulative buckets, sum and count of an obs
// nanosecond histogram rendered in seconds: every le label and the sum
// are the integer divided by the unit, so they print clean.
func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := obs.NewHistogram([]int64{500_000, 10_000_000, 100_000_000, 1_000_000_000})
	r.Histogram("lat_seconds", "Latency.", 1e9, h.Snapshot)
	for _, ns := range []int64{53_707, 5_000_000, 50_000_000, 50_000_000, 500_000_000, 5_000_000_000} {
		h.Observe(ns)
	}
	got := render(t, r)
	want := "# HELP lat_seconds Latency.\n" +
		"# TYPE lat_seconds histogram\n" +
		`lat_seconds_bucket{le="0.0005"} 1` + "\n" +
		`lat_seconds_bucket{le="0.01"} 2` + "\n" +
		`lat_seconds_bucket{le="0.1"} 4` + "\n" +
		`lat_seconds_bucket{le="1"} 5` + "\n" +
		`lat_seconds_bucket{le="+Inf"} 6` + "\n" +
		"lat_seconds_sum 5.605053707\n" +
		"lat_seconds_count 6\n"
	if got != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramBoundary: an observation equal to a bound lands in that
// bound's bucket (le is inclusive), the next integer above it does not.
func TestHistogramBoundary(t *testing.T) {
	r := NewRegistry()
	h := obs.NewHistogram([]int64{1, 2})
	r.Histogram("h", "", 1, h.Snapshot)
	h.Observe(1)
	h.Observe(3)
	got := render(t, r)
	for _, line := range []string{`h_bucket{le="1"} 1`, `h_bucket{le="2"} 1`, `h_bucket{le="+Inf"} 2`} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
}

// TestHistogramFromSnapshot: any snapshot source renders — per-bucket
// counts made cumulative, the overflow entry under +Inf, sum and count.
func TestHistogramFromSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Histogram("stage_ms", "Stage latency.", 1000, func() obs.HistSnapshot {
		return obs.HistSnapshot{
			Bounds: []int64{1, 10},
			Counts: []uint64{3, 1, 2}, // per-bucket, overflow last
			Sum:    123,
		}
	})
	got := render(t, r)
	for _, line := range []string{
		"# TYPE stage_ms histogram",
		`stage_ms_bucket{le="0.001"} 3`,
		`stage_ms_bucket{le="0.01"} 4`,
		`stage_ms_bucket{le="+Inf"} 6`,
		"stage_ms_sum 0.123",
		"stage_ms_count 6",
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
}

// TestHistogramMalformed: a snapshot with missing counts renders a
// truncated but well-formed family instead of panicking mid-scrape.
func TestHistogramMalformed(t *testing.T) {
	r := NewRegistry()
	r.Histogram("bad_seconds", "", 1, func() obs.HistSnapshot {
		return obs.HistSnapshot{Bounds: []int64{1, 2, 3}, Counts: []uint64{5}}
	})
	r.Histogram("zero_seconds", "", 1, func() obs.HistSnapshot { return obs.HistSnapshot{} })
	got := render(t, r)
	for _, line := range []string{
		`bad_seconds_bucket{le="1"} 5`,
		`bad_seconds_bucket{le="+Inf"} 5`,
		"bad_seconds_count 5",
		`zero_seconds_bucket{le="+Inf"} 0`,
		"zero_seconds_count 0",
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
	if strings.Contains(got, `le="2"`) {
		t.Errorf("rendered a bucket with no count:\n%s", got)
	}
}

// TestHistogramRejectsPoison: a histogram's sum is an integer, so the NaN
// or -Inf a neighbouring callback computes cannot reach it (a float
// accumulator that met one would report NaN forever and break every
// rate() over it) — and the page around such a callback stays
// grammatical: every sample line is a name and a token a scraper parses.
func TestHistogramRejectsPoison(t *testing.T) {
	r := NewRegistry()
	h := obs.NewHistogram([]int64{1_000_000_000})
	r.Counter("nan_total", "", math.NaN)
	r.Histogram("lat_seconds", "Latency.", 1e9, h.Snapshot)
	r.Gauge("neg_inf", "", func() float64 { return math.Inf(-1) })
	r.Gauge("after", "", func() float64 { return 1 })
	h.Observe(500_000_000)
	got := render(t, r)
	want := "# TYPE nan_total counter\n" +
		"nan_total NaN\n" +
		"# HELP lat_seconds Latency.\n" +
		"# TYPE lat_seconds histogram\n" +
		"lat_seconds_bucket{le=\"1\"} 1\n" +
		"lat_seconds_bucket{le=\"+Inf\"} 1\n" +
		"lat_seconds_sum 0.5\n" +
		"lat_seconds_count 1\n" +
		"# TYPE neg_inf gauge\n" +
		"neg_inf -Inf\n" +
		"# TYPE after gauge\n" +
		"after 1\n"
	if got != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", got, want)
	}
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if _, raw, ok := strings.Cut(line, " "); !ok {
			t.Errorf("sample line %q has no value", line)
		} else if _, err := strconv.ParseFloat(raw, 64); err != nil {
			t.Errorf("sample line %q: %v", line, err)
		}
	}
}

// TestRegistrationValidation: bad names, duplicates and a bad histogram
// unit panic at registration time.
func TestRegistrationValidation(t *testing.T) {
	one := func() float64 { return 1 }
	snap := func() obs.HistSnapshot { return obs.HistSnapshot{} }
	r := NewRegistry()
	r.Counter("ok_total", "", one)
	mustPanic(t, "duplicate name", func() { r.Gauge("ok_total", "", one) })
	mustPanic(t, "duplicate across kinds", func() { r.Histogram("ok_total", "", 1, snap) })
	mustPanic(t, "invalid name", func() { r.Counter("0bad", "", one) })
	mustPanic(t, "invalid chars", func() { r.Gauge("a-b", "", one) })
	mustPanic(t, "invalid info name", func() { r.Info("a b", "", nil) })
	mustPanic(t, "zero unit", func() { r.Histogram("h", "", 0, snap) })
	mustPanic(t, "NaN unit", func() { r.Histogram("h2", "", math.NaN(), snap) })
	if got := render(t, r); got != "# TYPE ok_total counter\nok_total 1\n" {
		t.Errorf("a refused registration left something on the page:\n%s", got)
	}
}

// TestFuncRegistrationValidation: nil callbacks and bad label names
// panic at registration, like every other registration error.
func TestFuncRegistrationValidation(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "nil counter fn", func() { r.Counter("a_total", "", nil) })
	mustPanic(t, "nil gauge fn", func() { r.Gauge("b", "", nil) })
	mustPanic(t, "nil histogram fn", func() { r.Histogram("c", "", 1, nil) })
	mustPanic(t, "bad label name", func() {
		r.Info("d_info", "", map[string]string{"0bad": "x"})
	})
}

// TestHelpEscaping: newlines and backslashes in help must be escaped.
func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "line one\nline \\two", func() float64 { return 0 })
	got := render(t, r)
	if !strings.Contains(got, `# HELP c_total line one\nline \\two`) {
		t.Errorf("help not escaped:\n%s", got)
	}
}

// TestInfo: constant labels render sorted by key and escaped, value
// pinned at 1.
func TestInfo(t *testing.T) {
	r := NewRegistry()
	r.Info("build_info", "Build metadata.", map[string]string{
		"version": "v1.2.3",
		"goos":    "linux",
		"goos2":   "after goos: keys sort, not key=value pairs",
		"odd":     "a\"b\\c\nd",
	})
	got := render(t, r)
	want := "# HELP build_info Build metadata.\n" +
		"# TYPE build_info gauge\n" +
		"build_info{goos=\"linux\",goos2=\"after goos: keys sort, not key=value pairs\"," +
		"odd=\"a\\\"b\\\\c\\nd\",version=\"v1.2.3\"} 1\n"
	if got != want {
		t.Errorf("rendered:\n%s\nwant:\n%s", got, want)
	}
	// No labels: bare series.
	r2 := NewRegistry()
	r2.Info("plain_info", "", nil)
	if !strings.Contains(render(t, r2), "plain_info 1\n") {
		t.Error("label-free info metric missing bare sample")
	}
}

// TestHandler serves the rendered registry with the exposition content
// type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "x", func() float64 { return 7 })
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		t.Errorf("content type %q, want %q", ct, ContentType)
	}
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "c_total 7\n") {
		t.Errorf("body:\n%s", b.String())
	}
}

// TestConcurrentUpdates: obs primitives hammered while the page renders
// (run under -race in CI) — a scrape never needs the writers to pause,
// every render is a well-formed family, and every update lands.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var c obs.Counter
	var g obs.Gauge
	h := obs.NewHistogram([]int64{500})
	r.Counter("c_total", "", count(&c))
	r.Gauge("g", "", level(&g))
	r.Histogram("h", "", 1, h.Snapshot)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(int64(i))
				h.Observe(250)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		got := render(t, r)
		if !strings.Contains(got, "# TYPE h histogram\nh_bucket{le=\"500\"} ") {
			t.Fatalf("render %d during updates:\n%s", i, got)
		}
	}
	wg.Wait()
	got := render(t, r)
	for _, line := range []string{"c_total 8000", "g 999", `h_bucket{le="500"} 8000`, "h_sum 2e+06", "h_count 8000"} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing %q after the writers finished:\n%s", line, got)
		}
	}
}

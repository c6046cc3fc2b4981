package main

import (
	"context"
	"fmt"
	"strconv"
	"time"
)

// outcome is what one run of one workload reports: the contract's result
// object plus what a reader needs to judge it.
type outcome struct {
	Result result `json:"result"`
	// Gated holds what an untraced run measured beyond the driver's
	// end-to-end list, which must suit every workload: scrape_ms_p50 exists
	// on daemon-scrape only, and peak_rss_mb does not repeat on adapt-loop.
	// -compare gates them per workload; the driver sees them with --trace 1.
	Gated     map[string]metricValue `json:"gated,omitempty"`
	Spread    map[string]spread      `json:"spread,omitempty"` // per-invocation samples behind a median
	Failures  []string               `json:"failures,omitempty"`
	Notes     map[string]any         `json:"notes"`
	TraceFile string                 `json:"trace_file,omitempty"`
	measured  map[string]bool        // metric names this workload produced itself
}

// value finds a metric among those the run printed for the driver and
// those it measured beyond that list.
func (o *outcome) value(name string) (metricValue, bool) {
	if v, ok := o.Result.Metrics[name]; ok {
		return v, true
	}
	v, ok := o.Gated[name]
	return v, ok
}

// gate records a metric of an untraced run that BENCHMARK.json lists under
// per_layer and -compare bounds.
func (o *outcome) gate(spec *benchSpec, name string, samples []float64) {
	m, ok := spec.perLayer(name)
	if !ok {
		panic(fmt.Sprintf("metric %q is not listed in BENCHMARK.json", name))
	}
	if o.Gated == nil {
		o.Gated = map[string]metricValue{}
	}
	o.Gated[name] = metricValue{Value: median(samples), Unit: m.Unit}
	o.Spread[name] = summarize(samples)
}

// ops counts operations against the correctness gate.
type ops struct {
	attempted, failed int
	failures          []string
}

func (o *ops) record(op string, bad []string) {
	o.attempted++
	if len(bad) == 0 {
		return
	}
	o.failed++
	for _, b := range bad {
		if len(o.failures) < 20 {
			o.failures = append(o.failures, op+": "+b)
		}
	}
}

func (o *ops) finish(ms *metricSet, out *outcome) {
	out.Result = result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: ms.values()}
	out.Failures = o.failures
	out.measured = ms.explicit
}

const (
	maxInvocations  = 500
	kilobytesPerMB  = 1 << 10
	nsPerMS         = float64(time.Millisecond)
	usPerSecond     = 1e6
	tracedTimeShare = 0.5 // of --seconds a traced run spends invoking; the layer passes are fixed work
)

// timedSetUp repeats the whole set-up and returns the last preparation
// and every duration in seconds.
func (e *env) timedSetUp(ctx context.Context, w workload, repeats int) (*prepared, []float64, error) {
	var pr *prepared
	var secs []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		var err error
		if pr, err = e.setUp(ctx, w); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return pr, secs, nil
}

func (pr *prepared) notes(e *env) map[string]any {
	return map[string]any{
		"seed":          e.seed,
		"trace_bytes":   pr.traceBytes,
		"trace_packets": pr.packets,
		"trace_source":  "generated in set-up by tracegen from the seed, read back from the page cache (never synced or dropped)",
	}
}

// usage are the outside-the-process measurements of a set of invocations.
type usage struct {
	wallS, pktsPerS, cpuUSPerPkt, rssMB, sysShare []float64
}

func (u *usage) add(i invocation, packets int64) {
	u.wallS = append(u.wallS, i.wall().Seconds())
	u.pktsPerS = append(u.pktsPerS, float64(packets)/i.wall().Seconds())
	u.cpuUSPerPkt = append(u.cpuUSPerPkt, i.cpu().Seconds()*usPerSecond/float64(packets))
	u.rssMB = append(u.rssMB, float64(i.maxRSSKB)/kilobytesPerMB)
	u.sysShare = append(u.sysShare, i.sys.Seconds()/i.cpu().Seconds())
}

// runEndToEnd is an untraced run: set-up three times, then invoke the
// program over and over (closed loop, one at a time) for the run length.
func (e *env) runEndToEnd(ctx context.Context, spec *benchSpec, w workload, seconds float64) (*outcome, error) {
	ms := newMetricSet(spec.EndToEnd)
	pr, setups, err := e.timedSetUp(ctx, w, e.size.setUps)
	if err != nil {
		return nil, err
	}
	out := &outcome{Notes: pr.notes(e), Spread: map[string]spread{"setup_s": summarize(setups)}}
	ms.set("setup_s", median(setups))
	var o ops

	if w.daemon {
		dr, err := e.runDaemon(ctx, pr, time.Duration(seconds*float64(time.Second)), "run", false)
		if err != nil {
			return nil, err
		}
		dr.into(&o)
		ms.set("pkts_per_s", dr.pktsPerS())
		ms.set("cpu_us_per_pkt", dr.cpuUSPerPkt())
		out.gate(spec, "peak_rss_mb", []float64{float64(dr.maxRSSKB) / kilobytesPerMB})
		out.gate(spec, "scrape_ms_p50", dr.scrapeMS)
		dr.describe(out.Notes)
		o.finish(ms, out)
		return out, nil
	}

	var first *flowtopRun
	if e.size.warmUp {
		// Untimed: the binary and the trace are in the page cache afterwards.
		r := e.runFlowtop(ctx, pr, w.workers, "warm", false)
		o.record("warm-up", checkFlowtop(pr, &r, nil))
		first = &r
	}
	var u usage
	start := time.Now()
	for n := 0; n < maxInvocations && (len(u.wallS) < e.size.minTimed || time.Since(start).Seconds() < seconds); n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := e.runFlowtop(ctx, pr, w.workers, "run", false)
		o.record("invocation "+strconv.Itoa(n+1), checkFlowtop(pr, &r, first))
		if first == nil {
			first = &r
		}
		if r.err == nil {
			u.add(r.invocation, pr.packets)
		}
	}
	if len(u.wallS) == 0 {
		return nil, fmt.Errorf("%s: no invocation succeeded: %v", w.name, o.failures)
	}
	if w.exactAcrossWorkers() {
		r := e.runFlowtop(ctx, pr, 2, "w2", false)
		o.record("-workers 2 re-run", checkFlowtop(pr, &r, first))
	}
	for name, samples := range map[string][]float64{"pkts_per_s": u.pktsPerS, "cpu_us_per_pkt": u.cpuUSPerPkt} {
		ms.set(name, median(samples))
		out.Spread[name] = summarize(samples)
	}
	out.gate(spec, "peak_rss_mb", u.rssMB)
	out.Notes["timed_invocations"] = len(u.wallS)
	out.Notes["invocation_wall_s"] = summarize(u.wallS)
	o.finish(ms, out)
	return out, nil
}

// exactAcrossWorkers reports whether the workload's report must be
// byte-identical at another worker count: exact tables promise it, and
// the single-worker workload is where the re-run is cheap.
func (w workload) exactAcrossWorkers() bool {
	return w.table == "exact" && w.workers == 1 && !w.daemon
}

func (dr *daemonRun) into(o *ops) {
	o.attempted += dr.attempted
	o.failed += dr.failed
	o.failures = append(o.failures, dr.failures...)
}

func (dr *daemonRun) windowPackets() float64 {
	const series = "flowrankd_packets_ingested_total"
	return dr.last[series] - dr.first[series]
}

func (dr *daemonRun) pktsPerS() float64 {
	return dr.windowPackets() / dr.lastScrape.done.Sub(dr.firstScrape.done).Seconds()
}

func (dr *daemonRun) cpuUSPerPkt() float64 {
	return (dr.cpuEnd.total() - dr.cpuStart.total()).Seconds() * usPerSecond / dr.windowPackets()
}

func (dr *daemonRun) describe(notes map[string]any) {
	notes["load_generator"] = "one process: one goroutine scraping over one kept-alive HTTP connection every " +
		scrapeInterval.String() + " (open loop, latency timed from the due time), one goroutine receiving NetFlow on one UDP socket; all traffic crossed the loopback interface"
	notes["scrapes"] = len(dr.late)
	notes["generator_lateness_ms"] = summarize(dr.late)
	notes["window_s"] = dr.lastScrape.done.Sub(dr.firstScrape.done).Seconds()
	notes["sink_datagrams"] = dr.sink.Datagrams
}

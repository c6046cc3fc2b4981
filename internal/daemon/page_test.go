package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"flowrank/internal/invert"
	"flowrank/internal/source"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden")

// buildLabelValueRE matches one label value of flowrank_build_info (the
// toolchain and VCS stamp differ from machine to machine).
var buildLabelValueRE = regexp.MustCompile(`="(?:[^"\\]|\\.)*"`)

// pageShape reduces a /metrics page to what must not drift between
// releases: every # HELP and # TYPE line and every series with its
// labels, in page order, sample values dropped.
func pageShape(page string) string {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
			if strings.HasPrefix(line, "flowrank_build_info{") {
				line = buildLabelValueRE.ReplaceAllString(line, `=""`)
			}
		}
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// journalRecords decodes the bin records of a journal written to buf.
// Call it once Run has returned.
func journalRecords(t *testing.T, buf *bytes.Buffer) []BinRecord {
	t.Helper()
	var recs []BinRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var outer struct {
			Msg    string    `json:"msg"`
			Record BinRecord `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &outer); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if outer.Msg == journalMsg {
			recs = append(recs, outer.Record)
		}
	}
	return recs
}

// replayToEOF runs a journaled daemon over a finite source and returns
// the /metrics page scraped once the source is exhausted (every bin is
// closed by then) and the journal of the run.
func replayToEOF(t *testing.T, cfg Config) (page string, recs []BinRecord) {
	t.Helper()
	var jbuf bytes.Buffer
	cfg.Monitor.Journal = NewJournal(&jbuf)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := runDaemon(ctx, d)
	// Minutes, not waitFor's seconds: an adaptive refit under the race
	// detector beside the other packages' suites can take tens of seconds.
	waitLong(t, 2*time.Minute, "source EOF", func() bool {
		return scrape(t, d.Addr())["flowrankd_source_eof"] == 1
	})
	page = fetchPage(t, d.Addr())
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v", err)
	}
	return page, journalRecords(t, &jbuf)
}

// TestMetricsPageGolden pins the whole /metrics page — names, help, types,
// bucket ladders and their order — of a daemon with every optional stage
// on (inversion, NetFlow export, the adaptive loop) after a finite replay.
// Dashboards, deploy/alerts.yml and the benchmark read these names
// (TestDeployReadsPageSeries checks deploy/'s); a change that moves one
// must show it in this file's diff. Regenerate with:
//
//	go test ./internal/daemon -run TestMetricsPageGolden -update
func TestMetricsPageGolden(t *testing.T) {
	coll, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	cfg := testDaemonConfig(source.NewSlice(genPackets(300)))
	cfg.Monitor.Inverter = invert.Parametric{}
	cfg.Monitor.AdaptTarget = 1
	cfg.Monitor.BinSeconds = 10 // one bin: the page's shape needs one refit, not three
	cfg.NetFlowAddr = coll.LocalAddr().String()
	page, _ := replayToEOF(t, cfg)
	got := pageShape(page)

	const golden = "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		// Both end in a newline, so the first differing line exists in both.
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for gl[i] == wl[i] {
			i++
		}
		t.Errorf("/metrics page (%d lines) drifted from %s (%d lines) at line %d (regenerate with -update if intended):\n got: %s\nwant: %s",
			len(gl)-1, golden, len(wl)-1, i+1, gl[i], wl[i])
	}
}

// deploySeriesRE matches a series name in deploy/'s rules and docs.
var deploySeriesRE = regexp.MustCompile(`\bflowrankd?_[a-zA-Z0-9_:]*[a-zA-Z0-9:]`)

// TestDeployReadsPageSeries: every flowrank(d)_* series deploy/alerts.yml
// and deploy/README.md name is a family on the golden /metrics page (a
// histogram's _bucket, _sum and _count samples name their family), so a
// rename shows in the deploy rig, not as an alert that never fires.
func TestDeployReadsPageSeries(t *testing.T) {
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, line := range strings.Split(string(golden), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(rest)[0]] = true
		}
	}
	for _, path := range []string{"../../deploy/alerts.yml", "../../deploy/README.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		names := deploySeriesRE.FindAllString(string(doc), -1)
		if len(names) == 0 {
			t.Errorf("%s names no flowrank series", path)
		}
		for _, name := range names {
			fam := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && families[base] {
					fam = base
				}
			}
			if !families[fam] {
				t.Errorf("%s reads %s, which is not on the /metrics page", path, name)
			}
		}
	}
}

// TestSamplingRateGauge: flowrankd_sampling_rate is the configured rate
// until a bin closes and the rate the adaptive loop left in force after.
func TestSamplingRateGauge(t *testing.T) {
	src := newChanSource()
	var jbuf bytes.Buffer
	cfg := testDaemonConfig(src)
	cfg.Monitor.Rate = 0.4
	cfg.Monitor.BinSeconds = 60 // one bin, closed by the drain
	cfg.Monitor.Inverter = invert.Parametric{}
	cfg.Monitor.AdaptTarget = 1
	cfg.Monitor.Journal = NewJournal(&jbuf)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := runDaemon(ctx, d)
	if got := scrape(t, d.Addr())["flowrankd_sampling_rate"]; got != 0.4 {
		t.Errorf("sampling_rate before the first bin = %g, want the configured 0.4", got)
	}
	const n = 300
	for _, p := range genPackets(n) {
		src.ch <- p
	}
	waitFor(t, "packets ingested", func() bool { return d.pipe.Ingested().Load() == n })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v", err)
	}

	recs := journalRecords(t, &jbuf)
	if len(recs) != 1 || recs[0].Adapt == nil || !recs[0].Adapt.Applied {
		t.Fatalf("want one bin with an applied retune, journal has %+v", recs)
	}
	var page bytes.Buffer // the listener is gone with the drain; render directly
	d.m.reg.WriteTo(&page)
	got := parseSamples(t, page.String())["flowrankd_sampling_rate"]
	if want := recs[0].Adapt.Rate; got != want || got != d.pipe.Rate() || got == 0.4 {
		t.Errorf("sampling_rate after the retune = %g, journal says %g, sampler runs at %g", got, want, d.pipe.Rate())
	}
}

// thinBinInverter is invert.Naive until its budget of good bins runs out.
type thinBinInverter struct{ good int }

func (f *thinBinInverter) Name() string { return "thinbin" }

func (f *thinBinInverter) Invert(counts []float64, p float64) (invert.Estimate, error) {
	if f.good == 0 {
		return invert.Estimate{}, errors.New("bin too thin")
	}
	f.good--
	return invert.Naive{}.Invert(counts, p)
}

// TestFailedInversionKeepsLastEstimate: a bin whose inversion failed
// leaves the three flowrankd_inverted_* gauges at the last one that
// succeeded, while every other last-bin gauge moves on to the new bin.
func TestFailedInversionKeepsLastEstimate(t *testing.T) {
	cfg := testDaemonConfig(source.NewSlice(genPackets(400))) // 4 bins
	cfg.Monitor.Inverter = &thinBinInverter{good: 2}
	page, recs := replayToEOF(t, cfg)
	if len(recs) != 4 {
		t.Fatalf("%d bins journaled, want 4", len(recs))
	}
	good, last := recs[1].Inversion, recs[3]
	if good == nil || good.Err != "" || good.Flows == 0 || last.Inversion == nil || last.Inversion.Err == "" {
		t.Fatalf("want bin 2 inverted and bin 4 failed: %+v, %+v", good, last.Inversion)
	}
	got := parseSamples(t, page)
	for name, want := range map[string]float64{
		"flowrankd_inverted_mean_pkts":  good.MeanPkts,
		"flowrankd_inverted_tail_index": good.TailIndex,
		"flowrankd_inverted_flows":      good.Flows,
		"flowrankd_bin_flows":           float64(last.Flows),
		"flowrankd_bin_sampled_flows":   float64(last.SampledFlows),
	} {
		if got[name] != want {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
}

// TestBinLatencySumIsJournalEmitSum: flowrankd_bin_process_seconds is
// summed in integer nanoseconds, so its _sum is exactly the journal's
// emit stages added up and divided once — no float accumulation digits.
func TestBinLatencySumIsJournalEmitSum(t *testing.T) {
	page, recs := replayToEOF(t, testDaemonConfig(source.NewSlice(genPackets(600))))
	var emitNs int64
	for _, r := range recs {
		emitNs += r.Stages.Emit
	}
	got := parseSamples(t, page)
	if sum, want := got["flowrankd_bin_process_seconds_sum"], float64(emitNs)/1e9; sum != want || emitNs == 0 {
		t.Errorf("bin_process_seconds_sum = %v, journal emit stages sum to %d ns = %v s", sum, emitNs, want)
	}
	if n := got["flowrankd_bin_process_seconds_count"]; n != float64(len(recs)) {
		t.Errorf("bin_process_seconds_count = %g, journal has %d bins", n, len(recs))
	}
}

// TestSilentClientIsDropped: a connection that never sends a request is
// closed after readHeaderTimeout instead of pinning a goroutine and a
// descriptor for good, while a scraper's kept-alive connection that sat
// idle for longer than that between two scrapes is still there.
func TestSilentClientIsDropped(t *testing.T) {
	defer func(old time.Duration) { readHeaderTimeout = old }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	d, err := New(testDaemonConfig(newChanSource()))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := runDaemon(ctx, d)
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Run = %v", err)
		}
	}()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	scrapeReused := func() (reused bool) {
		trace := &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) { reused = ci.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), "GET", "http://"+d.Addr()+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return reused
	}
	scrapeReused() // opens the scraper's connection

	silent, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	start := time.Now()
	silent.SetReadDeadline(start.Add(10 * time.Second))
	if n, err := silent.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("read on the silent connection = %d, %v; want the server to close it (0, EOF)", n, err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("silent connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
	if !scrapeReused() {
		t.Errorf("the scraper's connection did not survive %v idle", time.Since(start))
	}
}

package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flowrank/internal/invert"
	"flowrank/internal/source"
)

// TestJournalRecordsBins: a daemon with a journal writes one valid
// record per bin, and the records carry what the bin measured.
func TestJournalRecordsBins(t *testing.T) {
	coll, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()

	var buf bytes.Buffer // slog handlers serialize writes; read only after Run returns
	pkts := genPackets(400)
	cfg := testDaemonConfig(source.NewSlice(pkts))
	cfg.Monitor.Inverter = invert.Naive{}
	cfg.NetFlowAddr = coll.LocalAddr().String()
	cfg.Monitor.Journal = NewJournal(&buf)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := runDaemon(ctx, d)
	waitFor(t, "source EOF", func() bool { return d.m.sourceEOF.Load() == 1 })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	bins, err := ValidateJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("journal invalid: %v", err)
	}
	if want := int(d.m.bins.Load()); bins != want {
		t.Fatalf("journal has %d bin records, daemon flushed %d bins", bins, want)
	}

	// Decode the records and cross-check them against the run.
	var recs []BinRecord
	var totalSampled int64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var outer struct {
			Msg    string    `json:"msg"`
			Record BinRecord `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &outer); err != nil {
			t.Fatal(err)
		}
		if outer.Msg != journalMsg {
			continue
		}
		recs = append(recs, outer.Record)
		totalSampled += outer.Record.SampledPackets
	}
	if got := d.m.sampled.Load(); totalSampled != got {
		t.Errorf("journal sampled packets sum %d != metric %d", totalSampled, got)
	}
	for i, r := range recs {
		if r.Table != "exact" {
			t.Errorf("record %d: table %q, want exact", i, r.Table)
		}
		if r.SamplingRate != 0.5 {
			t.Errorf("record %d: sampling rate %g, want 0.5", i, r.SamplingRate)
		}
		if r.Stages == nil || r.Stages.Total <= 0 || r.Stages.Emit <= 0 {
			t.Errorf("record %d: missing or zero stage timings: %+v", i, r.Stages)
		}
		if r.Inversion == nil || r.Inversion.Method != "naive" {
			t.Errorf("record %d: inversion record %+v, want method naive", i, r.Inversion)
		}
		if r.NetFlow == nil {
			t.Errorf("record %d: no netflow outcome despite an export target", i)
			continue
		}
		if r.NetFlow.Dest != cfg.NetFlowAddr || r.NetFlow.SendErrors != 0 || r.NetFlow.Records == 0 {
			t.Errorf("record %d: netflow outcome %+v", i, r.NetFlow)
		}
	}
	// Flow sequences must chain across bins.
	seq := 0
	for i, r := range recs {
		if r.NetFlow.FlowSeqStart != seq {
			t.Errorf("record %d: flow_seq_start %d, want %d", i, r.NetFlow.FlowSeqStart, seq)
		}
		seq += r.NetFlow.Records
	}
}

// TestJournalExampleRecord keeps the documented example in testdata in
// sync with the real schema — the record the README points readers at
// must always validate.
func TestJournalExampleRecord(t *testing.T) {
	f, err := os.Open("testdata/journal.example.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bins, err := ValidateJournal(f)
	if err != nil {
		t.Fatalf("example journal invalid: %v", err)
	}
	if bins == 0 {
		t.Fatal("example journal holds no bin records")
	}
}

// TestNetFlowSendFailureWarning: UDP send failures produce a structured,
// rate-limited warning carrying the destination and flow-sequence
// context, and the journal records the per-bin failure counts.
func TestNetFlowSendFailureWarning(t *testing.T) {
	coll, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()

	var logBuf, jBuf bytes.Buffer
	pkts := genPackets(400)
	cfg := testDaemonConfig(source.NewSlice(pkts))
	cfg.NetFlowAddr = coll.LocalAddr().String()
	cfg.Monitor.Log = NewJournal(&logBuf) // JSON operational log: easy to assert on
	cfg.Monitor.Journal = NewJournal(&jBuf)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.nf.Close() // every datagram write now fails — a deterministic unreachable collector

	ctx, cancel := context.WithCancel(context.Background())
	done := runDaemon(ctx, d)
	waitFor(t, "source EOF", func() bool { return d.m.sourceEOF.Load() == 1 })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d.m.nfErrors.Load() == 0 {
		t.Fatal("no send errors counted")
	}
	if d.m.nfDatagrams.Load() != 0 {
		t.Errorf("%d datagrams counted as sent through a failing conn", d.m.nfDatagrams.Load())
	}

	warns := 0
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("operational log line %q: %v", line, err)
		}
		if rec["msg"] != "netflow send failed" {
			continue
		}
		warns++
		if rec["level"] != "WARN" {
			t.Errorf("send-failure level %v, want WARN", rec["level"])
		}
		if rec["dest"] != cfg.NetFlowAddr {
			t.Errorf("warning dest %v, want %s", rec["dest"], cfg.NetFlowAddr)
		}
		if _, ok := rec["flow_seq"].(float64); !ok {
			t.Errorf("warning lacks flow_seq context: %v", rec)
		}
		if _, ok := rec["suppressed"].(float64); !ok {
			t.Errorf("warning lacks the suppressed count: %v", rec)
		}
	}
	// Every bin's export failed, but the warnings are rate-limited to one
	// per 30 s — far longer than this run (the suppressed count is pinned
	// next to the exporter, pipeline.TestExportWriteFailures).
	if warns != 1 {
		t.Errorf("%d send-failure warnings, want exactly 1 (rate limit)", warns)
	}

	// The journal still accounts every failure, unthrottled.
	var sendErrs, datagrams int
	for _, line := range strings.Split(strings.TrimSpace(jBuf.String()), "\n") {
		var outer struct {
			Msg    string    `json:"msg"`
			Record BinRecord `json:"record"`
		}
		if err := json.Unmarshal([]byte(line), &outer); err != nil {
			t.Fatal(err)
		}
		if outer.Msg != journalMsg || outer.Record.NetFlow == nil {
			continue
		}
		sendErrs += outer.Record.NetFlow.SendErrors
		datagrams += outer.Record.NetFlow.Datagrams
	}
	if sendErrs != int(d.m.nfErrors.Load()) || datagrams != 0 {
		t.Errorf("journal send_errors=%d datagrams=%d, want %d and 0",
			sendErrs, datagrams, d.m.nfErrors.Load())
	}
}

// expoNameRE is the exposition metric-name grammar.
var expoNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// validateExposition checks a /metrics page against the text exposition
// format (version 0.0.4): HELP/TYPE comment grammar, sample-line
// grammar, TYPE-before-samples, and histogram family consistency
// (cumulative buckets ending in +Inf == _count).
func validateExposition(t *testing.T, page string) map[string]string {
	t.Helper()
	types := make(map[string]string)
	histCum := make(map[string]uint64)   // family -> last cumulative bucket
	histLe := make(map[string]float64)   // family -> last le bound
	histCount := make(map[string]uint64) // family -> _count value
	sampleFamily := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if _, ok := types[base]; ok && types[base] == "histogram" {
					return base
				}
			}
		}
		return name
	}
	for ln, line := range strings.Split(page, "\n") {
		where := fmt.Sprintf("line %d %q", ln+1, line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if !expoNameRE.MatchString(parts[0]) {
				t.Errorf("%s: bad metric name in HELP", where)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !expoNameRE.MatchString(parts[0]) {
				t.Fatalf("%s: malformed TYPE", where)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("%s: unknown type %q", where, parts[1])
			}
			if _, dup := types[parts[0]]; dup {
				t.Errorf("%s: duplicate TYPE for %s", where, parts[0])
			}
			types[parts[0]] = parts[1]
		case strings.HasPrefix(line, "#"):
			t.Errorf("%s: unknown comment form", where)
		default:
			rest, raw, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("%s: sample line without value", where)
			}
			name, labels := rest, ""
			if i := strings.IndexByte(rest, '{'); i >= 0 {
				name, labels = rest[:i], rest[i:]
				if !strings.HasSuffix(labels, "}") {
					t.Errorf("%s: unterminated label block", where)
				}
			}
			if !expoNameRE.MatchString(name) {
				t.Errorf("%s: bad sample name %q", where, name)
			}
			fam := sampleFamily(name)
			if _, ok := types[fam]; !ok {
				t.Errorf("%s: sample before its TYPE", where)
			}
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil && raw != "+Inf" && raw != "-Inf" && raw != "NaN" {
				t.Errorf("%s: unparseable value %q", where, raw)
			}
			if types[fam] == "histogram" {
				switch {
				case strings.HasSuffix(name, "_bucket"):
					le := labels[strings.Index(labels, `le="`)+4 : strings.LastIndex(labels, `"`)]
					bound := math.Inf(1)
					if le != "+Inf" {
						if bound, err = strconv.ParseFloat(le, 64); err != nil {
							t.Errorf("%s: bad le %q", where, le)
						}
					}
					if prev, ok := histLe[fam]; ok && bound <= prev {
						t.Errorf("%s: le %g not ascending after %g", where, bound, prev)
					}
					if uint64(v) < histCum[fam] {
						t.Errorf("%s: bucket count %g below previous cumulative %d", where, v, histCum[fam])
					}
					histLe[fam], histCum[fam] = bound, uint64(v)
				case strings.HasSuffix(name, "_count"):
					histCount[fam] = uint64(v)
				}
			}
		}
	}
	for fam, count := range histCount {
		if histCum[fam] != count {
			t.Errorf("histogram %s: +Inf bucket %d != count %d", fam, histCum[fam], count)
		}
		if !math.IsInf(histLe[fam], 1) {
			t.Errorf("histogram %s: last bucket le is %g, want +Inf", fam, histLe[fam])
		}
	}
	return types
}

// TestExpositionConformance scrapes a live daemon and validates the
// whole page — every flowrankd series plus the pipeline and runtime
// self-telemetry — against the exposition grammar.
func TestExpositionConformance(t *testing.T) {
	pkts := genPackets(400)
	cfg := testDaemonConfig(source.NewSlice(pkts))
	cfg.Monitor.Inverter = invert.Naive{}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := runDaemon(ctx, d)
	waitFor(t, "source EOF", func() bool { return d.m.sourceEOF.Load() == 1 })

	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	types := validateExposition(t, string(body))

	for series, typ := range map[string]string{
		"flowrankd_up":                      "gauge",
		"flowrankd_bins_total":              "counter",
		"flowrankd_bin_process_seconds":     "histogram",
		"flowrankd_pipeline_packets_total":  "counter",
		"flowrankd_pipeline_ingest_seconds": "histogram",
		"flowrankd_pipeline_flush_seconds":  "histogram",
		"flowrankd_goroutines":              "gauge",
		"flowrankd_heap_alloc_bytes":        "gauge",
		"flowrankd_gc_pause_seconds_total":  "counter",
		"flowrankd_uptime_seconds":          "gauge",
		"flowrank_build_info":               "gauge",
	} {
		if got, ok := types[series]; !ok {
			t.Errorf("series %s missing from exposition", series)
		} else if got != typ {
			t.Errorf("series %s typed %s, want %s", series, got, typ)
		}
	}
	// The pipeline bridge must agree with the daemon's own accounting.
	vals := scrape(t, d.Addr())
	if got, want := vals["flowrankd_pipeline_packets_total"], vals["flowrankd_packets_ingested_total"]; got != want {
		t.Errorf("pipeline packets %g != ingested %g", got, want)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentScrapeDuringBins hammers /metrics from several clients
// while the daemon crosses bin flushes — with the obs bridge's
// render-time callbacks reading engine counters mid-flush, this is the
// scrape-vs-flush race the -race CI job must prove clean.
func TestConcurrentScrapeDuringBins(t *testing.T) {
	pkts := genPackets(600)
	cfg := testDaemonConfig(source.NewSlice(pkts))
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := runDaemon(ctx, d)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					resp, err := http.Get("http://" + d.Addr() + "/metrics")
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	waitFor(t, "source EOF", func() bool { return d.m.sourceEOF.Load() == 1 })
	close(stop)
	wg.Wait()
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d.m.bins.Load() == 0 {
		t.Fatal("no bins flushed under scrape load")
	}
}

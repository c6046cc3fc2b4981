package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"flowrank/internal/dist"
	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/invert"
	"flowrank/internal/layers"
	"flowrank/internal/netflow"
	"flowrank/internal/packet"
	"flowrank/internal/pcap"
	"flowrank/internal/source"
	"flowrank/internal/stream"
)

// genPackets builds a deterministic multi-bin workload with skewed flow
// popularity, 100 packets per second of trace time.
func genPackets(n int) []packet.Packet {
	pkts := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		id := byte(i % 7 * (i % 5))
		pkts = append(pkts, packet.Packet{
			Time: float64(i) * 0.01,
			Key: flow.Key{
				Src:     flow.Addr{10, 0, 0, id},
				Dst:     flow.Addr{192, 168, 1, id % 3},
				SrcPort: 1000 + uint16(id),
				DstPort: 80,
				Proto:   6,
			},
			Size: 100 + int(id),
		})
	}
	return pkts
}

func testConfig(pkts []packet.Packet) Config {
	return Config{
		Source:     source.NewSlice(pkts),
		Agg:        flow.FiveTuple{},
		Rate:       0.5,
		Seed:       1,
		TopT:       5,
		BinSeconds: 1,
		Workers:    2,
	}
}

// topBin is a bin result carrying only a sampled top list — all the
// exporter reads.
func topBin(bin int64, packets ...int64) stream.BinResult {
	b := stream.BinResult{Bin: bin}
	for i, n := range packets {
		b.SampledTop = append(b.SampledTop, flowtable.Entry{
			Key: flow.Key{Src: flow.Addr{9, 9, 9, byte(i)}}, Packets: n, Bytes: 100 * n,
		})
	}
	return b
}

// decodeAll splits a byte stream of back-to-back v5 datagrams.
func decodeAll(t *testing.T, raw []byte) (hdrs []netflow.Header, recs [][]netflow.Record) {
	t.Helper()
	for len(raw) > 0 {
		h, r, err := netflow.DecodeDatagram(raw)
		if err != nil {
			t.Fatal(err)
		}
		hdrs, recs = append(hdrs, h), append(recs, r)
		raw = raw[netflow.HeaderLen+len(r)*netflow.RecordLen:]
	}
	return hdrs, recs
}

// TestWriteNetflowTinyRate: the export path must succeed at rates the
// 14-bit field cannot represent, recording the clamped interval.
func TestWriteNetflowTinyRate(t *testing.T) {
	var out bytes.Buffer
	x := &exporter{w: &out, dest: "tiny.nf5"}
	got := x.export(topBin(0, 3), 1.0/100000)
	if got == nil || got.Records != 1 || got.Datagrams != 1 || got.SendErrors != 0 || got.Err != "" {
		t.Fatalf("export outcome %+v", got)
	}
	hdrs, recs := decodeAll(t, out.Bytes())
	if len(hdrs) != 1 || hdrs[0].SamplingInterval != netflow.MaxSamplingInterval {
		t.Errorf("headers %+v, want one with the interval clamped at %d", hdrs, netflow.MaxSamplingInterval)
	}
	if len(recs[0]) != 1 || recs[0][0].Packets != 3 {
		t.Errorf("records %+v", recs)
	}
}

// TestWriteNetflowPerBinRates: when -adapt moves the rate between bins,
// each bin's records must be exported under its own header interval —
// a single header computed from the initial rate would make consumers
// rescale every later bin wrongly.
func TestWriteNetflowPerBinRates(t *testing.T) {
	var out bytes.Buffer
	x := &exporter{w: &out}
	first := x.export(topBin(0, 1), 0.2)
	second := x.export(topBin(1, 2), 0.02)
	if x.export(topBin(2), 0.02) != nil {
		t.Error("a bin with no sampled flow produced an export outcome")
	}
	hdrs, _ := decodeAll(t, out.Bytes())
	if len(hdrs) != 2 || hdrs[0].SamplingInterval != 5 || hdrs[1].SamplingInterval != 50 {
		t.Errorf("per-bin headers %+v, want intervals [5 50]", hdrs)
	}
	// The flow sequence keeps running across bins — a reset to 0 would
	// read as datagram loss to a collector.
	if hdrs[0].FlowSequence != 0 || hdrs[1].FlowSequence != 1 || first.FlowSeqStart != 0 || second.FlowSeqStart != 1 {
		t.Errorf("flow sequences: headers %d, %d; outcomes %d, %d; want 0, 1",
			hdrs[0].FlowSequence, hdrs[1].FlowSequence, first.FlowSeqStart, second.FlowSeqStart)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("sendto: connection refused") }

// TestExportWriteFailures: failed datagram writes are counted per bin,
// never fatal, and warned about at most once per nfWarnEvery, with the
// suppressed failures counted for the next warning.
func TestExportWriteFailures(t *testing.T) {
	var logBuf bytes.Buffer
	x := &exporter{w: failingWriter{}, dest: "collector:2055", log: NewJournal(&logBuf)}
	for bin := int64(0); bin < 3; bin++ {
		got := x.export(topBin(bin, 5, 4), 0.5)
		if got.SendErrors != 1 || got.Datagrams != 0 || got.Records != 2 || got.FlowSeqStart != int(2*bin) {
			t.Errorf("bin %d outcome %+v", bin, got)
		}
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d log lines, want exactly 1 (rate limit):\n%s", len(lines), logBuf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["msg"] != "netflow send failed" || rec["level"] != "WARN" || rec["dest"] != "collector:2055" ||
		rec["flow_seq"] != 0.0 || rec["suppressed"] != 0.0 {
		t.Errorf("warning %v", rec)
	}
	if x.warnDropped != 2 {
		t.Errorf("%d failures recorded as suppressed, want 2", x.warnDropped)
	}
}

// TestRunOrdersExportCallbackJournal pins the per-bin order: a bin's
// datagrams are written before its callback runs (nothing is held back
// for a later bin or for EOF), and its journal line after. Every record
// carries its stage timings.
func TestRunOrdersExportCallbackJournal(t *testing.T) {
	var nf, journal bytes.Buffer
	cfg := testConfig(genPackets(400))
	cfg.NetFlow, cfg.NetFlowDest = &nf, "mem"
	cfg.Journal = NewJournal(&journal)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bins, exported := 0, 0
	err = p.Run(context.Background(), func(b stream.BinResult, rec *BinRecord) error {
		if rec.NetFlow == nil || rec.NetFlow.Records != len(b.SampledTop) || rec.NetFlow.FlowSeqStart != exported {
			t.Errorf("bin %d: export outcome %+v for %d sampled top flows after %d records", b.Bin, rec.NetFlow, len(b.SampledTop), exported)
			return nil
		}
		exported += rec.NetFlow.Records
		if want := (bins+1)*netflow.HeaderLen + exported*netflow.RecordLen; nf.Len() != want {
			t.Errorf("bin %d: %d export bytes written when the callback ran, want %d", b.Bin, nf.Len(), want)
		}
		if got := strings.Count(journal.String(), "\n"); got != bins {
			t.Errorf("bin %d: %d journal lines when the callback ran, want %d", b.Bin, got, bins)
		}
		if rec.Bin != b.Bin || rec.Flows != b.Flows || rec.SamplingRate != 0.5 || rec.Stages == nil || rec.Stages.Emit <= 0 {
			t.Errorf("bin %d: record %+v", b.Bin, rec)
		}
		bins++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bins != 4 {
		t.Errorf("%d bins, want 4", bins)
	}
	if n, err := ValidateJournal(&journal); err != nil || n != bins {
		t.Errorf("journal: %d records, %v; want %d valid", n, err, bins)
	}
}

// nanDist is a size law with a broken quantile function: the fitted
// model's metrics are NaN and the rate solve fails.
type nanDist struct{ dist.Pareto }

func (nanDist) QuantileCCDF(float64) float64 { return math.NaN() }

// TestAdaptKeepsRate: a bin the loop cannot refit — no inversion, a
// failed inversion, or a refit that returns an error — keeps the rate
// and records why; none of them ends the run.
func TestAdaptKeepsRate(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Inverter = invert.Parametric{}
	cfg.AdaptTarget = 1
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		bin  stream.BinResult
		want string
	}{
		{"no inversion", stream.BinResult{}, "no inversion"},
		{"failed inversion", stream.BinResult{InversionErr: errors.New("too few flows")}, "too few flows"},
		{"refit error", stream.BinResult{Inversion: &invert.Estimate{}}, "no size distribution"},
		// A solver failure is a reason to keep the rate, not a
		// recommendation to sample everything.
		{"solver error", stream.BinResult{Inversion: &invert.Estimate{
			Dist: nanDist{dist.ParetoWithMean(9.6, 1.5)}, FlowCount: 2000}}, "metric is NaN"},
	}
	for _, tc := range cases {
		got := p.adapt(tc.bin)
		if got.Applied || got.PrevRate != 0.5 || got.Rate != 0.5 || !strings.Contains(got.Reason, tc.want) {
			t.Errorf("%s: %+v, want the rate kept at 0.5 because %q", tc.name, got, tc.want)
		}
	}
	if p.Rate() != 0.5 {
		t.Errorf("rate moved to %g", p.Rate())
	}
}

// TestNewValidation is the table of New's rejection paths.
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"missing source", func(c *Config) { c.Source = nil }, "Source is required"},
		{"missing aggregator", func(c *Config) { c.Agg = nil }, "Agg is required"},
		{"zero rate", func(c *Config) { c.Rate = 0 }, "outside (0, 1]"},
		{"adapt without inverter", func(c *Config) { c.AdaptTarget = 1 }, "Config.Inverter"},
		{"adapt without top list", func(c *Config) { c.AdaptTarget = 1; c.Inverter = invert.EM{}; c.TopT = 0 }, "TopT"},
		{"negative table budget", func(c *Config) { c.Tables = flowtable.Spec{Kind: flowtable.KindSpaceSaving, Slots: -1} }, "flowtable"},
	}
	for _, tc := range cases {
		cfg := testConfig(nil)
		tc.mod(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// liveSource yields its packets, then blocks like a live capture until it
// is Closed (fail == nil) or reports a corruption error (fail != nil).
// read counts the packets it has yielded.
type liveSource struct {
	pkts   []packet.Packet
	fail   error
	closed chan struct{}
	read   atomic.Int64
}

func (s *liveSource) NextBlock(buf []packet.Packet) (int, error) {
	if len(s.pkts) > 0 {
		buf[0], s.pkts = s.pkts[0], s.pkts[1:]
		s.read.Add(1)
		return 1, nil
	}
	if s.fail != nil {
		return 0, s.fail
	}
	<-s.closed
	return 0, source.ErrClosedSource
}

func (s *liveSource) Close() error {
	close(s.closed)
	return nil
}

// TestRunEndings pins how a run ends: cancellation drains — the blocked
// read is interrupted and the partial bin flushed — while a source error
// aborts without reporting the half-ingested bin.
func TestRunEndings(t *testing.T) {
	bad := errors.New("truncated frame 17")
	for _, tc := range []struct {
		name     string
		fail     error
		wantBins int
	}{
		{"cancel drains", nil, 1},
		{"corrupt source aborts", bad, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(nil)
			src := &liveSource{pkts: genPackets(50), fail: tc.fail, closed: make(chan struct{})}
			cfg.Source = src
			cfg.BinSeconds = 60 // one partial bin
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.fail == nil {
				// The corrupt source needs no cancel, and one racing its
				// failing read would turn the abort into a drain.
				go func() {
					for src.read.Load() < 50 {
						runtime.Gosched()
					}
					cancel()
				}()
			}
			bins := 0
			err = p.Run(ctx, func(stream.BinResult, *BinRecord) error { bins++; return nil })
			if !errors.Is(err, tc.fail) {
				t.Errorf("Run = %v, want %v", err, tc.fail)
			}
			if bins != tc.wantBins {
				t.Errorf("%d bins reported, want %d", bins, tc.wantBins)
			}
		})
	}
}

// TestRunPcapTruncatedMidRecord: a capture that ends inside a record is
// corruption, not end of stream. The bins that closed before the cut are
// reported; the run then fails with io.ErrUnexpectedEOF and the bin the
// cut fell in is not passed off as a measurement.
func TestRunPcapTruncatedMidRecord(t *testing.T) {
	pkts := genPackets(250) // 2.5 s: bins 0 and 1 complete, bin 2 partial
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	for _, p := range pkts {
		if frame, err = layers.Frame(frame[:0], p.Key, 10, 0); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(pcap.Packet{Time: p.Time, Data: frame, OrigLen: p.Size}); err != nil {
			t.Fatal(err)
		}
	}
	src, err := source.NewPcapSource(bytes.NewReader(buf.Bytes()[:buf.Len()-len(frame)/2]))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(nil)
	cfg.Source = src
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bins []int64
	err = p.Run(context.Background(), func(b stream.BinResult, _ *BinRecord) error {
		bins = append(bins, b.Bin)
		return nil
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Run = %v, want io.ErrUnexpectedEOF", err)
	}
	if len(bins) != 2 || bins[0] != 0 || bins[1] != 1 {
		t.Errorf("bins reported: %v, want the two complete ones [0 1]", bins)
	}
}

// TestIngestedCountsWhatRunRead: the ingest count is every packet Run read
// from its source — blocks of packet.BlockLen and a shorter last one — at
// EOF, where the bins account for each of them, and on a native trace that
// ends in a corrupt record, where every record before the cut was read and
// counted though the bin it fell in is not reported.
func TestIngestedCountsWhatRunRead(t *testing.T) {
	const n = 3*packet.BlockLen + 17
	var buf bytes.Buffer
	w, err := packet.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range genPackets(n) {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want int64 // packets read
		err  error
	}{
		{"whole", buf.Bytes(), n, nil},
		{"cut mid-record", buf.Bytes()[:buf.Len()-3], n - 1, io.ErrUnexpectedEOF},
	} {
		src, err := source.NewTraceSource(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(nil)
		cfg.Source = src
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var binned int64
		err = p.Run(context.Background(), func(b stream.BinResult, _ *BinRecord) error {
			binned += b.OrigPackets
			return nil
		})
		if !errors.Is(err, tc.err) {
			t.Fatalf("%s: Run = %v, want %v", tc.name, err, tc.err)
		}
		if got := p.Ingested().Load(); got != tc.want {
			t.Errorf("%s: ingested %d packets, Run read %d", tc.name, got, tc.want)
		}
		if tc.err == nil && binned != tc.want {
			t.Errorf("%s: the bins hold %d packets, ingested %d", tc.name, binned, tc.want)
		}
	}
}

// TestGoroutineLabels: a goroutine profile taken mid-run names the reader
// role=reader — the emit callback runs on it — and every shard worker
// role=shard with its index; once Run returns, the caller's goroutine has
// its own labels back.
func TestGoroutineLabels(t *testing.T) {
	p, err := New(testConfig(genPackets(400)))
	if err != nil {
		t.Fatal(err)
	}
	var mid string
	err = p.Run(context.Background(), func(stream.BinResult, *BinRecord) error {
		if mid == "" {
			mid = goroutineProfile(t)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"pipeline.TestGoroutineLabels": {`{"role":"reader"}`},
		"(*shard).loop":                {`{"role":"shard", "shard":"0"}`, `{"role":"shard", "shard":"1"}`},
	}
	for frame, labels := range want {
		if got := labelsOf(mid, frame); !slices.Equal(got, labels) {
			t.Errorf("mid-run, goroutines in %s are labeled %q, want %q", frame, got, labels)
		}
	}
	if got := labelsOf(goroutineProfile(t), "pipeline.TestGoroutineLabels"); !slices.Equal(got, []string{""}) {
		t.Errorf("after Run, the caller's goroutine is labeled %q, want no label", got)
	}
}

// goroutineProfile returns the goroutine profile in its text form, one
// record per stack and label set, blank-line separated.
func goroutineProfile(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// labelsOf returns the label sets of the profile's records whose stack
// holds frame, sorted, "" for a record with none.
func labelsOf(prof, frame string) []string {
	var out []string
	for _, rec := range strings.Split(prof, "\n\n") {
		if !strings.Contains(rec, frame) {
			continue
		}
		_, labels, _ := strings.Cut(rec, "# labels: ")
		labels, _, _ = strings.Cut(labels, "\n")
		out = append(out, labels)
	}
	slices.Sort(out)
	return out
}

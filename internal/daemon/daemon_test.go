package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flowrank/internal/flow"
	"flowrank/internal/invert"
	"flowrank/internal/netflow"
	"flowrank/internal/packet"
	"flowrank/internal/pipeline"
	"flowrank/internal/sampler"
	"flowrank/internal/source"
	"flowrank/internal/stream"
)

// The journal lives in internal/pipeline with the code that writes it;
// the daemon's tests read it under the names they always used.
type BinRecord = pipeline.BinRecord

var (
	NewJournal      = pipeline.NewJournal
	ValidateJournal = pipeline.ValidateJournal
)

const journalMsg = "bin"

// genPackets builds a deterministic multi-bin workload: flows of very
// different sizes so rankings and inversions are non-trivial.
func genPackets(n int) []packet.Packet {
	pkts := make([]packet.Packet, 0, n)
	for i := 0; i < n; i++ {
		// Flow popularity is heavily skewed: low flow IDs send often.
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

// chanSource blocks in NextBlock until a packet arrives or Close fires —
// the shape of a live capture, driving the drain path. It yields one
// packet per read.
type chanSource struct {
	ch   chan packet.Packet
	done chan struct{}
	once sync.Once
}

func newChanSource() *chanSource {
	return &chanSource{ch: make(chan packet.Packet, 64), done: make(chan struct{})}
}

func (s *chanSource) NextBlock(buf []packet.Packet) (int, error) {
	// Prefer pending packets so a racing Close still drains them all.
	select {
	case buf[0] = <-s.ch:
		return 1, nil
	default:
	}
	select {
	case buf[0] = <-s.ch:
		return 1, nil
	case <-s.done:
		return 0, fmt.Errorf("blocked read interrupted: %w", source.ErrClosedSource)
	}
}

func (s *chanSource) Close() error {
	s.once.Do(func() { close(s.done) })
	return nil
}

// failSource yields its packets then returns a corruption error.
type failSource struct {
	inner *source.Slice
	err   error
}

func (s *failSource) NextBlock(buf []packet.Packet) (int, error) {
	n, err := s.inner.NextBlock(buf)
	if err == io.EOF {
		return 0, s.err
	}
	return n, err
}

func (s *failSource) Close() error { return s.inner.Close() }

func testDaemonConfig(src source.PacketSource) Config {
	return Config{
		Monitor: pipeline.Config{
			Source:     src,
			Rate:       0.5,
			Seed:       1,
			TopT:       5,
			BinSeconds: 1,
			Workers:    2,
		},
		ListenAddr: "127.0.0.1:0",
	}
}

// runDaemon starts d.Run on a goroutine and returns the result channel.
func runDaemon(ctx context.Context, d *Daemon) chan error {
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	return done
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	waitLong(t, 10*time.Second, what, cond)
}

func waitLong(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDrainEmitsFinalPartialBin is the SIGTERM-path lifecycle test: a
// daemon blocked on a live-like source is canceled mid-bin; the drain
// must unblock the reader, flush the partial bin, and exit cleanly.
func TestDrainEmitsFinalPartialBin(t *testing.T) {
	src := newChanSource()
	cfg := testDaemonConfig(src)
	cfg.Monitor.BinSeconds = 60 // everything below lands in one partial bin
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := runDaemon(ctx, d)

	const n = 50
	for _, p := range genPackets(n) {
		src.ch <- p
	}
	waitFor(t, "packets ingested", func() bool { return d.src.Packets.Load() == n })
	if got := d.m.bins.Load(); got != 0 {
		t.Fatalf("bins flushed before drain: %d", got)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run after drain = %v, want nil", err)
	}
	if got := d.m.bins.Load(); got != 1 {
		t.Errorf("bins after drain = %d, want exactly the final partial bin", got)
	}
	if d.m.last.Load().rec.Flows == 0 {
		t.Error("final partial bin reported zero flows")
	}
	if d.m.up.Load() != 0 {
		t.Error("up gauge still 1 after Run returned")
	}
}

// fetchPage returns one /metrics page verbatim.
func fetchPage(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// parseSamples reads the label-free samples off a metrics page.
func parseSamples(t *testing.T, page string) map[string]float64 {
	t.Helper()
	vals := make(map[string]float64)
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, raw, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		vals[name] = v
	}
	return vals
}

// scrape fetches one metrics page and parses the simple samples.
func scrape(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	return parseSamples(t, fetchPage(t, addr))
}

// TestMetricsMatchBatch replays a trace to EOF and checks the scraped
// /metrics page against a reference stream.Engine run with the same
// configuration — the daemon must measure exactly what the batch monitor
// (flowtop) would have.
func TestMetricsMatchBatch(t *testing.T) {
	pkts := genPackets(600) // 6 one-second bins

	// Reference: the same engine configuration fed directly.
	var bins []stream.BinResult
	var sampledPkts int64
	eng, err := stream.NewEngine(stream.Config{
		Agg:        flow.FiveTuple{},
		Sampler:    sampler.NewBernoulli(0.5, 1),
		BinSeconds: 1,
		TopT:       5,
		Workers:    2,
		Inverter:   invert.EM{},
	}, func(b stream.BinResult) error {
		bins = append(bins, b)
		sampledPkts += b.SampledPackets
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := eng.Feed(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if len(bins) == 0 {
		t.Fatal("reference run emitted no bins")
	}

	cfg := testDaemonConfig(source.NewSlice(pkts))
	cfg.Monitor.Inverter = invert.EM{}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := runDaemon(ctx, d)
	waitFor(t, "source EOF", func() bool {
		return scrape(t, d.Addr())["flowrankd_source_eof"] == 1
	})
	got := scrape(t, d.Addr())

	last := bins[len(bins)-1]
	lastInv := last.Inversion
	want := map[string]float64{
		"flowrankd_up":                     1,
		"flowrankd_packets_ingested_total": float64(len(pkts)),
		"flowrankd_packets_sampled_total":  float64(sampledPkts),
		"flowrankd_bins_total":             float64(len(bins)),
		"flowrankd_sampling_rate":          0.5,
		"flowrankd_bin_flows":              float64(last.Flows),
		"flowrankd_bin_sampled_flows":      float64(last.SampledFlows),
		"flowrankd_bin_ranking_pairs":      float64(last.Pairs.Ranking),
		"flowrankd_bin_detection_pairs":    float64(last.Pairs.Detection),
		"flowrankd_bin_ranking_fraction":   last.Pairs.RankingFrac(),
		"flowrankd_bin_detection_fraction": last.Pairs.DetectionFrac(),
		"flowrankd_bin_count_err_pkts":     0,
		"flowrankd_inverted_mean_pkts":     lastInv.Mean,
		"flowrankd_inverted_tail_index":    lastInv.TailIndex,
		"flowrankd_inverted_flows":         lastInv.FlowCount,
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("metric %s missing from scrape", name)
			continue
		}
		if g != w {
			t.Errorf("%s = %g, want %g (batch reference)", name, g, w)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v", err)
	}
}

// TestHealthz pins the liveness endpoint.
func TestHealthz(t *testing.T) {
	src := newChanSource()
	d, err := New(testDaemonConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := runDaemon(ctx, d)
	resp, err := http.Get("http://" + d.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q, want 200 %q", resp.StatusCode, body, "ok\n")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestNetFlowService: the daemon exports each bin's sampled top list as
// v5 datagrams over UDP, decodable by the collector with the sampling
// interval of the rate that produced the bin.
func TestNetFlowService(t *testing.T) {
	coll, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()

	pkts := genPackets(400)
	cfg := testDaemonConfig(source.NewSlice(pkts))
	cfg.NetFlowAddr = coll.LocalAddr().String()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := runDaemon(ctx, d)
	waitFor(t, "netflow datagrams", func() bool { return d.m.nfDatagrams.Load() > 0 })
	waitFor(t, "source EOF", func() bool { return d.m.sourceEOF.Load() == 1 })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	records := 0
	buf := make([]byte, 65536)
	for records < int(d.m.nfRecords.Load()) {
		coll.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _, err := coll.ReadFrom(buf)
		if err != nil {
			t.Fatalf("collector read after %d records: %v", records, err)
		}
		hdr, recs, err := netflow.DecodeDatagram(buf[:n])
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if want := netflow.IntervalForRate(0.5); hdr.SamplingInterval != want {
			t.Errorf("sampling interval %d, want %d", hdr.SamplingInterval, want)
		}
		if hdr.FlowSequence != uint32(records) {
			t.Errorf("flow sequence %d, want %d", hdr.FlowSequence, records)
		}
		records += len(recs)
	}
	if records == 0 {
		t.Fatal("collector received no records")
	}
}

// TestAdaptiveLoopRetunes: with AdaptTarget set the daemon refits after
// every bin and the sampling-rate gauge tracks the live sampler.
func TestAdaptiveLoopRetunes(t *testing.T) {
	pkts := genPackets(300)
	cfg := testDaemonConfig(source.NewSlice(pkts))
	cfg.Monitor.Inverter = invert.Parametric{}
	cfg.Monitor.AdaptTarget = 1
	// One bin covers the whole trace: exactly one refit, run during the
	// EOF flush.
	cfg.Monitor.BinSeconds = 10
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := runDaemon(ctx, d)
	waitLong(t, 2*time.Minute, "source EOF", func() bool { return d.m.sourceEOF.Load() == 1 })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d.m.bins.Load() != 1 {
		t.Fatalf("bins = %d, want 1", d.m.bins.Load())
	}
	if got, live := d.m.last.Load().rate, d.pipe.Rate(); got != live {
		t.Errorf("sampling_rate gauge %g != live sampler rate %g", got, live)
	}
	if d.m.adaptChanges.Load() == 0 || d.pipe.Rate() == 0.5 {
		t.Errorf("closed loop never retuned: changes=%d p=%g", d.m.adaptChanges.Load(), d.pipe.Rate())
	}
}

// TestCorruptSourceAborts: a read error mid-bin must abort the run — no
// partial bin is reported — and surface the error from Run.
func TestCorruptSourceAborts(t *testing.T) {
	bad := errors.New("truncated frame 17")
	src := &failSource{inner: source.NewSlice(genPackets(30)), err: bad}
	cfg := testDaemonConfig(src)
	cfg.Monitor.BinSeconds = 60
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(context.Background())
	if !errors.Is(err, bad) {
		t.Fatalf("Run = %v, want the corruption error", err)
	}
	if d.m.bins.Load() != 0 {
		t.Errorf("%d bins reported from an aborted run, want 0", d.m.bins.Load())
	}
}

// TestConfigValidation is the table of New's rejection paths.
func TestConfigValidation(t *testing.T) {
	valid := func() Config { return testDaemonConfig(source.NewSlice(nil)) }
	cases := []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"missing source", func(c *Config) { c.Monitor.Source = nil }, "Source is required"},
		{"zero rate", func(c *Config) { c.Monitor.Rate = 0 }, "outside (0, 1]"},
		{"rate above one", func(c *Config) { c.Monitor.Rate = 1.5 }, "outside (0, 1]"},
		{"adapt without inverter", func(c *Config) { c.Monitor.AdaptTarget = 0.1 }, "set Config.Inverter"},
		{"missing listen addr", func(c *Config) { c.ListenAddr = "" }, "ListenAddr is required"},
		{"bad listen addr", func(c *Config) { c.ListenAddr = "not-an-addr" }, "listen"},
		{"bad netflow addr", func(c *Config) { c.NetFlowAddr = "no-port" }, "netflow target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mod(&cfg)
			_, err := New(cfg)
			if err == nil {
				t.Fatal("New accepted the bad config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestMonitorDefaults: a Monitor that leaves Agg, TopT and BinSeconds zero
// runs as the 5-tuple / top-10 / 60 s monitor, read off the first journal
// record: the bin is 60 s wide, its flows are the trace's distinct
// 5-tuples (under /24 prefixes genPackets has one), and the NetFlow export
// — the sampled top list — carries ten of its fifteen flows.
func TestMonitorDefaults(t *testing.T) {
	coll, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	pkts := genPackets(300)
	tuples := map[flow.Key]bool{}
	for _, p := range pkts {
		tuples[p.Key] = true
	}
	_, recs := replayToEOF(t, Config{
		Monitor:     pipeline.Config{Source: source.NewSlice(pkts), Rate: 1},
		ListenAddr:  "127.0.0.1:0",
		NetFlowAddr: coll.LocalAddr().String(),
	})
	if len(recs) == 0 {
		t.Fatal("no bin journaled")
	}
	r := recs[0]
	if r.Start != 0 || r.End != 60 {
		t.Errorf("first bin spans [%g, %g), want the 60 s default", r.Start, r.End)
	}
	if len(tuples) <= 10 || r.Flows != len(tuples) {
		t.Errorf("first bin has %d flows, want the trace's %d (> 10) 5-tuples", r.Flows, len(tuples))
	}
	if r.NetFlow == nil || r.NetFlow.Records != 10 {
		t.Errorf("NetFlow export %+v, want the default top 10", r.NetFlow)
	}
}

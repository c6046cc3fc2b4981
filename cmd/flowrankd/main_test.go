package main

import (
	"context"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
	"flowrank/internal/pipeline"
)

// writeTrace materializes a small deterministic native trace.
func writeTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.pkts")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := packet.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := byte(i % 6)
		if err := w.Write(packet.Packet{
			Time: float64(i) * 0.005,
			Key:  flow.Key{Src: flow.Addr{10, 0, 0, id}, Dst: flow.Addr{10, 0, 1, 1}, DstPort: 80, Proto: 6},
			Size: 120,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseOptions(in string) options {
	return options{
		Flags: pipeline.Flags{
			In: in, Rate: 0.5, TopT: 5, Bin: 1,
			Agg: "5tuple", Seed: 1, Workers: 2, Table: "exact",
		},
		listen: "127.0.0.1:0",
	}
}

// quietLogger discards operational records — validation-error tests only
// look at run's returned error.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// addrCapture is a slog.Handler that fishes the daemon's announced
// listen address out of the log stream — what an operator's eyes do.
type addrCapture struct {
	slog.Handler
	addrCh chan string
}

func (h addrCapture) Handle(ctx context.Context, r slog.Record) error {
	if strings.Contains(r.Message, "serving") {
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "addr" {
				select {
				case h.addrCh <- a.Value.String():
				default:
				}
			}
			return true
		})
	}
	return h.Handler.Handle(ctx, r)
}

// TestFlagValidation is the table of rejections for flowrankd's own
// flags, plus a check that run applies the shared validator (tabled in
// full by pipeline.TestFlagValidation) before it reads the source; every
// error must name the flag to change.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*options)
		want string
	}{
		{"no input", func(o *options) { o.In = "" }, "-in"},
		{"in and live", func(o *options) { o.live = "eth0" }, "mutually exclusive"},
		{"pcap with live", func(o *options) { o.In = ""; o.live = "eth0"; o.Pcap = true }, "-pcap"},
		{"loop with live", func(o *options) { o.In = ""; o.live = "eth0"; o.loop = true }, "-loop"},
		{"speed with live", func(o *options) { o.In = ""; o.live = "eth0"; o.speed = 1 }, "-speed"},
		{"negative speed", func(o *options) { o.speed = -2 }, "-speed"},
		// The first once panicked in source.Pace, the second replayed unpaced.
		{"infinite speed", func(o *options) { o.speed = math.Inf(1) }, "-speed"},
		{"NaN speed", func(o *options) { o.speed = math.NaN() }, "-speed"},
		{"adapt without invert", func(o *options) { o.Adapt = 1 }, "-invert"},
		{"unknown agg", func(o *options) { o.Agg = "7tuple" }, "-agg"},
		{"unknown invert", func(o *options) { o.Invert = "magic" }, "-invert"},
		{"unknown table", func(o *options) { o.Table = "btree" }, "btree"},
		// Both were accepted here while flowtop rejected them: -memory was
		// silently ignored, -t 0 failed only once the first bin closed.
		{"memory with exact table", func(o *options) { o.Memory = 4096 }, "-table"},
		{"adapt with an empty top list", func(o *options) { o.Adapt = 1; o.Invert = "em"; o.TopT = 0 }, "(-t)"},
		// The daemon once read -bin 0 as its own 60 s default.
		{"zero bin", func(o *options) { o.Bin = 0 }, "(-bin)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := baseOptions("trace.pkts")
			tc.mod(&opts)
			err := run(context.Background(), opts, quietLogger())
			if err == nil {
				t.Fatal("run accepted the bad flags")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLiveUnsupportedInHermeticBuild: without the live build tag, -live
// fails with an error telling the operator how to get it.
func TestLiveUnsupportedInHermeticBuild(t *testing.T) {
	opts := baseOptions("")
	opts.In, opts.live = "", "eth0"
	err := run(context.Background(), opts, quietLogger())
	if err == nil {
		t.Skip("live capture available in this build")
	}
	if !strings.Contains(err.Error(), "live capture unavailable") {
		t.Errorf("error %q does not explain the missing live build", err)
	}
}

// TestRunReplayToDrain drives the real binary wiring end to end in
// process: replay a trace with the journal and pprof surfaces on, scrape
// /metrics and /debug/pprof/heap while it serves, then cancel (the
// SIGTERM path), require a clean exit, and validate the journal the run
// left behind.
func TestRunReplayToDrain(t *testing.T) {
	trace := writeTrace(t)
	opts := baseOptions(trace)
	opts.loop = true // endless replay: the daemon must be stopped, like production
	opts.Journal = filepath.Join(t.TempDir(), "journal.jsonl")
	opts.pprof = true

	addrCh := make(chan string, 1)
	log := slog.New(addrCapture{
		Handler: slog.NewTextHandler(io.Discard, nil),
		addrCh:  addrCh,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, opts, log) }()

	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never announced its address")
	}
	get := func(path string) (string, int) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return "", 0
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.StatusCode
	}
	deadline := time.Now().Add(10 * time.Second)
	var body string
	for !strings.Contains(body, "flowrankd_up 1") {
		if time.Now().After(deadline) {
			t.Fatalf("metrics never came up; last scrape:\n%s", body)
		}
		body, _ = get("/metrics")
		time.Sleep(5 * time.Millisecond)
	}
	for _, series := range []string{
		"flowrankd_pipeline_packets_total",
		"flowrankd_goroutines",
		"flowrank_build_info{",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics page missing %q", series)
		}
	}
	if prof, code := get("/debug/pprof/heap?debug=1"); code != http.StatusOK || !strings.Contains(prof, "heap profile") {
		t.Errorf("-pprof heap endpoint: status %d, body %.80q", code, prof)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after cancel")
	}
	jf, err := os.Open(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	bins, err := pipeline.ValidateJournal(jf)
	if err != nil {
		t.Fatalf("journal invalid: %v", err)
	}
	if bins == 0 {
		t.Fatal("journal recorded no bins")
	}
}

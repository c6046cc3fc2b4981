package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowrank/internal/layers"
	"flowrank/internal/packet"
	"flowrank/internal/packetgen"
	"flowrank/internal/pcap"
	"flowrank/internal/pipeline"
	"flowrank/internal/source"
	"flowrank/internal/tracegen"
)

// writeTraces synthesizes one small Sprint-like trace in both on-disk
// formats and returns the two paths.
func writeTraces(t *testing.T) (native, pcapPath string) {
	t.Helper()
	cfg := tracegen.SprintFiveTuple(12, 5)
	cfg.ArrivalRate = 80
	records, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	native = filepath.Join(dir, "trace.pkts")
	nf, err := os.Create(native)
	if err != nil {
		t.Fatal(err)
	}
	w, err := packet.NewWriter(nf)
	if err != nil {
		t.Fatal(err)
	}
	if err := packetgen.Stream(records, 6, w.Write); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := nf.Close(); err != nil {
		t.Fatal(err)
	}

	pcapPath = filepath.Join(dir, "trace.pcap")
	pf, err := os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := pcap.NewWriter(pf, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 0, 2048)
	const overhead = layers.EthernetHeaderLen + layers.IPv4MinHeaderLen + layers.TCPMinHeaderLen
	err = packetgen.Stream(records, 6, func(p packet.Packet) error {
		payload := p.Size - overhead
		if payload < 0 {
			payload = 0
		}
		var ferr error
		frame, ferr = layers.Frame(frame[:0], p.Key, payload, 0)
		if ferr != nil {
			return ferr
		}
		return pw.Write(pcap.Packet{Time: p.Time, Data: frame})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	return native, pcapPath
}

// TestShardedMatchesSequential is the PR's acceptance cross-check: the
// sharded engine (workers=N) must produce byte-identical bin reports and
// NetFlow output to the one-shard run (workers=1) on the same seeded
// trace, for both input formats — including the closed loop (-adapt),
// whose rate updates happen on the reader goroutine and so must not
// depend on the worker count either.
func TestShardedMatchesSequential(t *testing.T) {
	native, pcapPath := writeTraces(t)
	dir := t.TempDir()
	type variant struct {
		in     string
		isPcap bool
		adapt  float64
	}
	for _, v := range []variant{{native, false, 0}, {pcapPath, true, 0}, {native, false, 1}} {
		var outs []string
		var nfs [][]byte
		for _, workers := range []int{1, 4} {
			nfPath := filepath.Join(dir, "out.nf5")
			var stdout, stderr bytes.Buffer
			opts := options{
				Flags: pipeline.Flags{
					In: v.in, Pcap: v.isPcap, Rate: 0.2, TopT: 5,
					Bin: 4, Agg: "5tuple", Seed: 9, Workers: workers,
					Invert: "em", Adapt: v.adapt,
				},
				nfOut: nfPath,
			}
			if err := run(opts, &stdout, &stderr); err != nil {
				t.Fatalf("pcap=%v adapt=%g workers=%d: %v", v.isPcap, v.adapt, workers, err)
			}
			raw, err := os.ReadFile(nfPath)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, stdout.String())
			nfs = append(nfs, raw)
		}
		if outs[0] != outs[1] {
			t.Errorf("pcap=%v adapt=%g: sequential and sharded bin reports differ:\n--- workers=1\n%s\n--- workers=4\n%s",
				v.isPcap, v.adapt, outs[0], outs[1])
		}
		if !bytes.Equal(nfs[0], nfs[1]) {
			t.Errorf("pcap=%v adapt=%g: sequential and sharded NetFlow exports differ (%d vs %d bytes)",
				v.isPcap, v.adapt, len(nfs[0]), len(nfs[1]))
		}
		if len(outs[0]) == 0 || len(nfs[0]) == 0 {
			t.Fatalf("pcap=%v adapt=%g: degenerate run: no output", v.isPcap, v.adapt)
		}
		if v.adapt > 0 && !strings.Contains(outs[0], "adapt: ") {
			t.Errorf("adapt=%g: no adapt line in output", v.adapt)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestGoldenOutput pins flowtop's stdout, byte for byte, on a fixed-seed
// native trace — output-format drift now fails tier-1 instead of only the
// e2e script. One run per -invert estimator pins its inversion line: the
// estimate's mean, tail index, flow count and size quantiles (tail's
// Mixture reads its quantiles through the step atlas). Regenerate with:
//
//	go test ./cmd/flowtop -run TestGoldenOutput -update
func TestGoldenOutput(t *testing.T) {
	native, _ := writeTraces(t)
	for _, inv := range []string{"em", "naive", "tail", "parametric"} {
		t.Run(inv, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			opts := options{
				Flags: pipeline.Flags{
					In: native, Rate: 0.2, TopT: 5, Bin: 4,
					Agg: "5tuple", Seed: 9, Workers: 2, Invert: inv,
				},
			}
			if err := run(opts, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(stdout.String(), "inversion ("+inv+")") {
				t.Fatalf("no %s inversion line:\n%s", inv, stdout.String())
			}
			golden := filepath.Join("testdata", "flowtop_sprint12s_p20_"+inv+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout drifted from %s (regenerate with -update if intended):\n--- got\n%s\n--- want\n%s",
					golden, stdout.String(), want)
			}
		})
	}
}

// TestGoldenOutputAdapt pins the closed loop's stdout byte for byte: the
// per-bin adapt lines (and through them the controller's recommendations)
// become part of the output contract. Regenerate with:
//
//	go test ./cmd/flowtop -run TestGoldenOutputAdapt -update
func TestGoldenOutputAdapt(t *testing.T) {
	native, _ := writeTraces(t)
	var stdout, stderr bytes.Buffer
	opts := options{
		Flags: pipeline.Flags{
			In: native, Rate: 0.2, TopT: 5, Bin: 4,
			Agg: "5tuple", Seed: 9, Workers: 2, Invert: "em",
			Adapt: 1,
		},
	}
	if err := run(opts, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(stdout.String(), "adapt: "); n < 2 {
		t.Fatalf("only %d adapt lines; the closed loop should fire once per bin:\n%s", n, stdout.String())
	}
	golden := filepath.Join("testdata", "flowtop_sprint12s_p20_em_adapt1.golden")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout drifted from %s (regenerate with -update if intended):\n--- got\n%s\n--- want\n%s",
			golden, stdout.String(), want)
	}
}

// TestCorruptTracePrintsNoPartialBin: a read error mid-bin must fail the
// run without reporting the half-ingested bin as a complete measurement.
func TestCorruptTracePrintsNoPartialBin(t *testing.T) {
	native, _ := writeTraces(t)
	raw, err := os.ReadFile(native)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-record: every packet of the 12 s trace lands in the huge
	// first bin, so nothing must be printed before the error.
	trunc := filepath.Join(t.TempDir(), "trunc.pkts")
	if err := os.WriteFile(trunc, raw[:len(raw)/2-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	opts := options{
		Flags: pipeline.Flags{
			In: trunc, Rate: 0.2, TopT: 5, Bin: 1e6,
			Agg: "5tuple", Seed: 9, Workers: 4,
		},
	}
	if err := run(opts, &stdout, &stderr); err == nil {
		t.Fatal("truncated trace accepted")
	}
	if stdout.Len() != 0 {
		t.Fatalf("partial bin reported despite read error:\n%s", stdout.String())
	}
}

// TestUnsupportedLinkTypeFails: -pcap on a capture that is not Ethernet
// (here Linux cooked, 113) must fail naming the link type, not parse the
// frames at Ethernet offsets and print an empty or mis-keyed report.
func TestUnsupportedLinkTypeFails(t *testing.T) {
	_, pcapPath := writeTraces(t)
	raw, err := os.ReadFile(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[20:], 113)
	cooked := filepath.Join(t.TempDir(), "cooked.pcap")
	if err := os.WriteFile(cooked, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	opts := options{
		Flags: pipeline.Flags{
			In: cooked, Pcap: true, Rate: 0.2, TopT: 5,
			Bin: 4, Agg: "5tuple", Seed: 9, Workers: 1,
		},
	}
	err = run(opts, &stdout, &stderr)
	if !errors.Is(err, source.ErrUnsupportedLinkType) || !strings.Contains(err.Error(), "link type 113") {
		t.Fatalf("run = %v, want ErrUnsupportedLinkType naming link type 113", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("report printed for an unsupported capture:\n%s", stdout.String())
	}
}

// TestFlagValidation checks that run rejects bad flags before reading
// anything: flowtop's own rule (-in) and, through the shared validator,
// the rules it has in common with flowrankd — those are tabled in full by
// pipeline.TestFlagValidation.
func TestFlagValidation(t *testing.T) {
	base := func() options {
		return options{
			Flags: pipeline.Flags{
				In: "trace.pkts", Rate: 0.2, TopT: 5, Bin: 4,
				Agg: "5tuple", Seed: 1, Workers: 1, Table: "exact",
			},
		}
	}
	cases := []struct {
		name string
		mod  func(*options)
		want string
	}{
		{"missing in", func(o *options) { o.In = "" }, "-in"},
		{"rate above one", func(o *options) { o.Rate = 2 }, "outside (0, 1]"}, // panicked in NewBernoulli before
		{"adapt without invert", func(o *options) { o.Adapt = 1 }, "-invert"},
		{"memory with exact table", func(o *options) { o.Memory = 4096 }, "-table"},
		{"unknown agg", func(o *options) { o.Agg = "7tuple" }, "-agg"},
		{"unknown invert", func(o *options) { o.Invert = "magic" }, "-invert"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base()
			tc.mod(&opts)
			var stdout, stderr bytes.Buffer
			err := run(opts, &stdout, &stderr)
			if err == nil {
				t.Fatal("run accepted the bad flags")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestJournalOutput: -journal writes a schema-valid record per bin, and
// attaching the journal's pipeline instrumentation must not change the
// printed report by a single byte, for any worker count.
func TestJournalOutput(t *testing.T) {
	native, _ := writeTraces(t)
	dir := t.TempDir()
	base := options{
		Flags: pipeline.Flags{
			In: native, Rate: 0.2, TopT: 5, Bin: 4,
			Agg: "5tuple", Seed: 9, Workers: 1,
		},
	}

	var plain bytes.Buffer
	if err := run(base, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		opts := base
		opts.Workers = workers
		opts.Journal = filepath.Join(dir, fmt.Sprintf("journal-%d.jsonl", workers))
		var stdout bytes.Buffer
		if err := run(opts, &stdout, io.Discard); err != nil {
			t.Fatal(err)
		}
		if stdout.String() != plain.String() {
			t.Errorf("workers=%d: -journal changed the printed report", workers)
		}
		f, err := os.Open(opts.Journal)
		if err != nil {
			t.Fatal(err)
		}
		bins, err := pipeline.ValidateJournal(f)
		f.Close()
		if err != nil {
			t.Fatalf("workers=%d: journal invalid: %v", workers, err)
		}
		if want := strings.Count(plain.String(), "== bin"); bins != want {
			t.Errorf("workers=%d: %d journal records, want %d bins", workers, bins, want)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"flowrank/internal/daemon"
	"flowrank/internal/flow"
	"flowrank/internal/invert"
	"flowrank/internal/packet"
	"flowrank/internal/pipeline"
	"flowrank/internal/source"
)

// binHeaderWatcher is a stdout that, each time a bin's table header is
// printed, records how large the -netflow file is at that moment.
type binHeaderWatcher struct {
	nfPath string
	sizes  []int64
}

func (w *binHeaderWatcher) Write(b []byte) (int, error) {
	if bytes.HasPrefix(b, []byte("== bin")) {
		var size int64
		if st, err := os.Stat(w.nfPath); err == nil {
			size = st.Size()
		}
		w.sizes = append(w.sizes, size)
	}
	return len(b), nil
}

// TestNetflowWrittenPerBin: -netflow writes a bin's datagrams when the
// bin closes, not at EOF — by the time a bin is printed its records are
// already in the file, so nothing is retained per bin and a failed run
// leaves the complete bins it reported.
func TestNetflowWrittenPerBin(t *testing.T) {
	native, _ := writeTraces(t)
	w := &binHeaderWatcher{nfPath: filepath.Join(t.TempDir(), "out.nf5")}
	opts := options{
		Flags: pipeline.Flags{
			In: native, Rate: 0.2, TopT: 5, Bin: 4,
			Agg: "5tuple", Seed: 9, Workers: 2,
		},
		nfOut: w.nfPath,
	}
	if err := run(opts, w, io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) < 2 {
		t.Fatalf("only %d bins printed; the trace should span several", len(w.sizes))
	}
	// A late bin may sample no flow and export nothing, so sizes need not
	// grow strictly — but the first bins do sample, and nothing may appear
	// after the last bin was printed (checked below).
	for i, size := range w.sizes {
		if size == 0 || (i > 0 && size < w.sizes[i-1]) {
			t.Fatalf("-netflow file sizes as each bin was printed: %v; every bin must already be on disk", w.sizes)
		}
	}
	st, err := os.Stat(w.nfPath)
	if err != nil {
		t.Fatal(err)
	}
	if last := w.sizes[len(w.sizes)-1]; st.Size() != last {
		t.Errorf("file grew from %d to %d bytes after the last bin was printed", last, st.Size())
	}
}

// writeLog is a stdout that keeps every Write apart and fails from the
// failAt-th on (never, when that is 0).
type writeLog struct {
	writes [][]byte
	failAt int
}

func (w *writeLog) Write(b []byte) (int, error) {
	if w.failAt > 0 && len(w.writes)+1 >= w.failAt {
		return 0, io.ErrClosedPipe
	}
	w.writes = append(w.writes, append([]byte(nil), b...))
	return len(b), nil
}

// TestStdoutWrittenPerBin: a bin's report — table, inversion line, adapt
// line — reaches stdout as one Write when the bin closes. A run that fails
// later has still printed every complete bin before the error, a stdout
// that fails is the run's error, and nothing of a bin is held back.
func TestStdoutWrittenPerBin(t *testing.T) {
	native, _ := writeTraces(t)
	opts := options{Flags: pipeline.Flags{
		In: native, Rate: 0.2, TopT: 5, Bin: 4,
		Agg: "5tuple", Seed: 9, Workers: 2, Invert: "naive",
	}}
	var whole writeLog
	if err := run(opts, &whole, io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(whole.writes) < 3 {
		t.Fatalf("%d writes; the trace should span at least three bins", len(whole.writes))
	}
	for i, b := range whole.writes {
		if !bytes.HasPrefix(b, []byte("== bin")) || bytes.Count(b, []byte("== bin")) != 1 || !bytes.Contains(b, []byte("inversion (")) {
			t.Fatalf("write %d of %d is not one whole bin report:\n%s", i, len(whole.writes), b)
		}
	}

	// The same trace cut inside a record of its last quarter: the bins
	// that closed before the cut are on stdout, byte for byte, in a Write
	// each, and nothing else is.
	raw, err := os.ReadFile(native)
	if err != nil {
		t.Fatal(err)
	}
	cut := opts
	cut.In = filepath.Join(t.TempDir(), "cut.pkts")
	if err := os.WriteFile(cut.In, raw[:len(raw)*7/8-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var partial writeLog
	if err := run(cut, &partial, io.Discard); err == nil {
		t.Fatal("truncated trace accepted")
	}
	if n := len(partial.writes); n == 0 || n >= len(whole.writes) {
		t.Fatalf("%d bins printed before the error, want some but fewer than the whole run's %d", n, len(whole.writes))
	}
	for i, b := range partial.writes {
		if !bytes.Equal(b, whole.writes[i]) {
			t.Fatalf("bin %d printed before the error differs from the whole run's:\n%s", i, b)
		}
	}

	// A stdout that fails on the second bin fails the run with its error.
	failing := writeLog{failAt: 2}
	if err := run(opts, &failing, io.Discard); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("run with a closed stdout: %v, want io.ErrClosedPipe", err)
	}
	if len(failing.writes) != 1 {
		t.Fatalf("%d writes before the failing one, want 1", len(failing.writes))
	}
}

// journalRecords decodes the bin records of a journal stream, zeroing
// what legitimately differs between two runs of the same measurement:
// the stage timings and the export destination's name.
func journalRecords(t *testing.T, r io.Reader) []pipeline.BinRecord {
	t.Helper()
	var recs []pipeline.BinRecord
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var line struct {
			Msg    string             `json:"msg"`
			Record pipeline.BinRecord `json:"record"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Msg != "bin" {
			continue
		}
		line.Record.Stages = nil
		if line.Record.NetFlow != nil {
			line.Record.NetFlow.Dest = ""
		}
		recs = append(recs, line.Record)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestJournalParityWithDaemon feeds the same packets and configuration
// through flowtop's run and through a daemon and requires the two bin
// journals to be equal record for record: both are front-ends of one
// pipeline, so whatever one measures, exports and decides, the other
// must too.
func TestJournalParityWithDaemon(t *testing.T) {
	pkts := make([]packet.Packet, 900) // 9 s of trace time
	for i := range pkts {
		id := byte(i % 7 * (i % 5))
		pkts[i] = packet.Packet{
			Time: float64(i) * 0.01,
			Key:  flow.Key{Src: flow.Addr{10, 0, 0, id}, Dst: flow.Addr{192, 168, 1, id % 3}, SrcPort: 1000 + uint16(id), DstPort: 80, Proto: 6},
			Size: 100 + int(id),
		}
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.pkts")
	f, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	w, err := packet.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The closed-loop cases rank a top list of one: a refit then costs
	// milliseconds instead of seconds, and the rate still moves every bin.
	for _, tc := range []struct {
		name     string
		topT     int
		binSec   float64
		invert   string
		inverter invert.Estimator
		adapt    float64
		kept     bool // the last bin cannot be inverted and keeps the rate
	}{
		{"inversion and export", 5, 3, "naive", invert.Naive{}, 0, false},
		// -t 0 ranks nothing in both: the daemon once ranked its own top 10.
		{"an empty top list", 0, 3, "naive", invert.Naive{}, 0, false},
		{"closed loop retunes every bin", 1, 3, "parametric", invert.Parametric{}, 1, false},
		{"closed loop keeps the rate on a failed inversion", 1, 4.5, "parametric", invert.Parametric{}, 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "flowtop.jsonl")
			opts := options{
				Flags: pipeline.Flags{
					In: trace, Rate: 0.5, TopT: tc.topT, Bin: tc.binSec,
					Agg: "5tuple", Seed: 3, Workers: 2, Invert: tc.invert,
					Adapt: tc.adapt, Journal: journal,
				},
				nfOut: filepath.Join(t.TempDir(), "out.nf5"),
			}
			if err := run(opts, io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
			jf, err := os.Open(journal)
			if err != nil {
				t.Fatal(err)
			}
			defer jf.Close()
			batch := journalRecords(t, jf)

			coll, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer coll.Close()
			var buf bytes.Buffer
			d, err := daemon.New(daemon.Config{
				Monitor: pipeline.Config{
					Source: source.NewSlice(pkts), Agg: flow.FiveTuple{}, Rate: 0.5, Seed: 3, TopT: tc.topT, BinSeconds: tc.binSec, Workers: 2,
					Inverter: tc.inverter, AdaptTarget: tc.adapt,
					Journal: pipeline.NewJournal(&buf),
				},
				ListenAddr: "127.0.0.1:0", NetFlowAddr: coll.LocalAddr().String(),
			})
			if err != nil {
				t.Fatal(err)
			}
			// At EOF the daemon keeps serving until its context ends; wait
			// for it to report the source exhausted, then stop it.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- d.Run(ctx) }()
			for deadline := time.Now().Add(30 * time.Second); !sourceEOF(d.Addr()); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("daemon never reached source EOF")
				}
			}
			cancel()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			service := journalRecords(t, &buf)

			if want := int(9 / tc.binSec); len(batch) != want {
				t.Fatalf("flowtop journaled %d bins, want %d", len(batch), want)
			}
			if !reflect.DeepEqual(batch, service) {
				t.Errorf("journals differ:\nflowtop  %s\ndaemon   %s", mustJSON(t, batch), mustJSON(t, service))
			}
			rate := 0.5
			for i, r := range batch {
				// An empty top list exports nothing, so it has no NetFlow sub-record.
				if (tc.topT > 0) != (r.NetFlow != nil) || r.Inversion == nil || (tc.adapt > 0) != (r.Adapt != nil) {
					t.Fatalf("record %d lacks a sub-record the configuration asks for: %s", i, mustJSON(t, r))
				}
				// A bin is labeled with the rate that produced it: the one
				// the previous bin's decision chose, not its own.
				if r.SamplingRate != rate {
					t.Errorf("record %d sampled at %g, want %g: %s", i, r.SamplingRate, rate, mustJSON(t, batch))
				}
				if r.Adapt != nil {
					rate = r.Adapt.Rate
				}
			}
			if last := batch[len(batch)-1].Adapt; last != nil && (last.Reason != "") != tc.kept {
				t.Errorf("last decision %+v, want a kept rate with a reason: %v", last, tc.kept)
			}
		})
	}
}

// sourceEOF scrapes the daemon once and reports whether it has read its
// source to the end.
func sourceEOF(addr string) bool {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	return bytes.Contains(page, []byte("\nflowrankd_source_eof 1\n"))
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

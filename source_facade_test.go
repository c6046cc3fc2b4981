package flowrank

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flowrank/internal/packet"
)

// facadePackets synthesizes a small deterministic packet stream via the
// public trace machinery.
func facadePackets(t *testing.T) []Packet {
	t.Helper()
	var pkts []Packet
	if err := StreamPackets(genTrace(t, SprintFiveTuple(3, 5), 60), 6, func(p Packet) error {
		pkts = append(pkts, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pkts) == 0 {
		t.Fatal("no packets generated")
	}
	return pkts
}

// drain reads a source to EOF.
func drain(t *testing.T, src PacketSource) []Packet {
	t.Helper()
	var out []Packet
	var p Packet
	for {
		err := src.Next(&p)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
}

// TestSourceFacadeConformance: the facade constructors produce sources —
// each concrete type a PacketSource — that replay identical streams, honor
// the Close error identity, and compose with the replay decorators.
func TestSourceFacadeConformance(t *testing.T) {
	pkts := facadePackets(t)

	// Slice source replays verbatim.
	var slice *SliceSource = NewSliceSource(pkts)
	got := drain(t, slice)
	if len(got) != len(pkts) || got[0] != pkts[0] || got[len(got)-1] != pkts[len(pkts)-1] {
		t.Fatalf("slice replay: %d packets, want %d", len(got), len(pkts))
	}

	// Native trace round-trip through NewTraceSource and OpenSource.
	var buf bytes.Buffer
	w, err := packet.NewWriter(&buf)
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
	var ts *TraceSource
	ts, err = NewTraceSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromReader := drain(t, ts)
	path := filepath.Join(t.TempDir(), "trace.pkts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	opened, err := OpenSource(path, false)
	if err != nil {
		t.Fatal(err)
	}
	fromFile := drain(t, opened)
	if len(fromReader) != len(pkts) || len(fromFile) != len(pkts) {
		t.Fatalf("trace round-trip: reader %d, file %d, want %d packets",
			len(fromReader), len(fromFile), len(pkts))
	}

	// Close error identity.
	s := NewSliceSource(pkts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := s.Next(&p); !errors.Is(err, ErrSourceClosed) {
		t.Fatalf("Next after Close = %v, want ErrSourceClosed identity", err)
	}

	// Looping doubles the stream with monotonic timestamps.
	var loop *LoopSource
	loop, err = NewLoopSource(func() (PacketSource, error) {
		return NewSliceSource(pkts), nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := 0; i < 2*len(pkts); i++ {
		if err := loop.Next(&p); err != nil {
			t.Fatalf("loop packet %d: %v", i, err)
		}
		if p.Time < prev {
			t.Fatalf("loop time went backwards at %d: %g < %g", i, p.Time, prev)
		}
		prev = p.Time
	}
	if err := loop.Close(); err != nil {
		t.Fatal(err)
	}

	// Pacing at an extreme speed still yields the same packets.
	var paced *PacedSource = PaceSource(NewSliceSource(pkts), 1e9)
	if got := drain(t, paced); len(got) != len(pkts) {
		t.Fatalf("paced replay: %d packets, want %d", len(got), len(pkts))
	}
}

// TestLiveSourceFacade: the hermetic build reports ErrLiveUnsupported.
func TestLiveSourceFacade(t *testing.T) {
	src, err := NewLiveSource("lo", 0)
	if err == nil {
		src.Close()
		t.Skip("live capture available in this build")
	}
	if !errors.Is(err, ErrLiveUnsupported) {
		t.Fatalf("NewLiveSource = %v, want ErrLiveUnsupported identity", err)
	}
}

// TestDaemonFacade: NewDaemon validates, runs a slice-backed daemon to
// EOF and drains it through the public API.
func TestDaemonFacade(t *testing.T) {
	if _, err := NewDaemon(DaemonConfig{}); err == nil {
		t.Fatal("NewDaemon accepted an empty config")
	}
	var d *MonitorDaemon
	d, err := NewDaemon(DaemonConfig{
		Monitor: MonitorConfig{
			Source:     NewSliceSource(facadePackets(t)),
			Rate:       0.5,
			Seed:       1,
			TopT:       5,
			BinSeconds: 1,
			Workers:    2,
		},
		ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Addr() == "" {
		t.Fatal("daemon bound no address")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	cancel() // immediate drain: Run must still exit cleanly
	if err := d.Run(ctx); err != nil {
		t.Fatalf("Run = %v", err)
	}
}

// TestStreamEngineContextFacade: the context constructor and the closed
// identity are reachable from the facade.
func TestStreamEngineContextFacade(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng, err := NewStreamEngineContext(ctx, StreamConfig{
		Agg:        FiveTuple{},
		Sampler:    NewBernoulli(0.5, 1),
		BinSeconds: 1,
		TopT:       3,
		Workers:    1,
	}, func(StreamBin) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	ferr := eng.Feed(Packet{Time: 0.1})
	if !errors.Is(ferr, context.Canceled) {
		t.Fatalf("Feed after cancel = %v, want context.Canceled", ferr)
	}
	if errors.Is(ferr, ErrStreamClosed) {
		t.Fatal("cancellation shadowed by ErrStreamClosed")
	}
	eng.Close()

	eng2, err := NewStreamEngine(StreamConfig{
		Agg: FiveTuple{}, Sampler: NewBernoulli(0.5, 1), BinSeconds: 1, Workers: 1,
	}, func(StreamBin) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	eng2.Abort()
	if ferr := eng2.Feed(Packet{Time: 0.1}); !errors.Is(ferr, ErrStreamClosed) {
		t.Fatalf("Feed after Abort = %v, want ErrStreamClosed", ferr)
	}
}

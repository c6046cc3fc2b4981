package source

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync/atomic"
	"testing"

	"flowrank/internal/layers"
	"flowrank/internal/packet"
	"flowrank/internal/packetgen"
	"flowrank/internal/pcap"
	"flowrank/internal/tracegen"
)

// testPackets expands a small seeded Sprint-like trace to packets.
func testPackets(t testing.TB) []packet.Packet {
	t.Helper()
	return genPackets(t, 6, 40)
}

// genPackets expands a seeded Sprint-like trace of the given duration and
// flow arrival rate to packets.
func genPackets(t testing.TB, seconds, arrivalRate float64) []packet.Packet {
	t.Helper()
	cfg := tracegen.SprintFiveTuple(seconds, 5)
	cfg.ArrivalRate = arrivalRate
	records, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []packet.Packet
	if err := packetgen.Stream(records, 6, func(p packet.Packet) error {
		pkts = append(pkts, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 100 {
		t.Fatalf("degenerate trace: %d packets", len(pkts))
	}
	return pkts
}

// encodeNative writes packets in the native trace format.
func encodeNative(t testing.TB, pkts []packet.Packet) []byte {
	t.Helper()
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
	return buf.Bytes()
}

// encodePcap writes packets as framed Ethernet/IPv4 pcap records.
func encodePcap(t testing.TB, pkts []packet.Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 0, 2048)
	const overhead = layers.EthernetHeaderLen + layers.IPv4MinHeaderLen + layers.TCPMinHeaderLen
	for _, p := range pkts {
		payload := p.Size - overhead
		if payload < 0 {
			payload = 0
		}
		var ferr error
		frame, ferr = layers.Frame(frame[:0], p.Key, payload, 0)
		if ferr != nil {
			t.Fatal(ferr)
		}
		if err := w.Write(pcap.Packet{Time: p.Time, Data: frame, OrigLen: p.Size}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// drain reads a source to EOF.
func drain(t *testing.T, src PacketSource) []packet.Packet {
	t.Helper()
	var out []packet.Packet
	var p packet.Packet
	for {
		err := src.Next(&p)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
}

// TestTraceSourceRoundTrip: a native trace read through TraceSource must
// reproduce the packet stream exactly.
func TestTraceSourceRoundTrip(t *testing.T) {
	pkts := testPackets(t)
	src, err := NewTraceSource(bytes.NewReader(encodeNative(t, pkts)))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := drain(t, src)
	if len(got) != len(pkts) {
		t.Fatalf("replayed %d packets, want %d", len(got), len(pkts))
	}
	for i := range got {
		if got[i].Key != pkts[i].Key || got[i].Size != pkts[i].Size {
			t.Fatalf("packet %d diverged: %+v vs %+v", i, got[i], pkts[i])
		}
	}
}

// TestPcapSourceMatchesTrace: the pcap path must yield the same keys and
// timestamps (to pcap's µs resolution) as the native path, plus skip
// undecodable frames silently.
func TestPcapSourceMatchesTrace(t *testing.T) {
	pkts := testPackets(t)
	src, err := NewPcapSource(bytes.NewReader(encodePcap(t, pkts)))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := drain(t, src)
	if len(got) != len(pkts) {
		t.Fatalf("replayed %d packets, want %d", len(got), len(pkts))
	}
	for i := range got {
		if got[i].Key != pkts[i].Key {
			t.Fatalf("packet %d key diverged: %v vs %v", i, got[i].Key, pkts[i].Key)
		}
	}
}

// TestPcapSourceSkipsUndecodable: garbage frames between valid ones are
// skipped, not surfaced as errors.
func TestPcapSourceSkipsUndecodable(t *testing.T) {
	pkts := testPackets(t)[:3]
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 0, 2048)
	for i, p := range pkts {
		if err := w.Write(pcap.Packet{Time: p.Time, Data: []byte{1, 2, 3, byte(i)}}); err != nil {
			t.Fatal(err)
		}
		frame, err = layers.Frame(frame[:0], p.Key, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(pcap.Packet{Time: p.Time, Data: frame, OrigLen: p.Size}); err != nil {
			t.Fatal(err)
		}
	}
	src, err := NewPcapSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, src)
	if len(got) != len(pkts) {
		t.Fatalf("got %d packets, want %d valid among garbage", len(got), len(pkts))
	}
}

// TestOpenFiles covers the file-backed constructor for both formats and
// the error paths.
func TestOpenFiles(t *testing.T) {
	pkts := testPackets(t)
	dir := t.TempDir()
	native := dir + "/t.pkts"
	pcapPath := dir + "/t.pcap"
	if err := writeFile(native, encodeNative(t, pkts)); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(pcapPath, encodePcap(t, pkts)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path   string
		isPcap bool
	}{{native, false}, {pcapPath, true}} {
		src, err := Open(c.path, c.isPcap)
		if err != nil {
			t.Fatalf("Open(%q, %v): %v", c.path, c.isPcap, err)
		}
		if got := drain(t, src); len(got) != len(pkts) {
			t.Fatalf("Open(%q): %d packets, want %d", c.path, len(got), len(pkts))
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir+"/missing", false); err == nil {
		t.Error("missing file accepted")
	}
	// Wrong format: a pcap opened as native must fail at the header.
	if _, err := Open(pcapPath, false); err == nil {
		t.Error("pcap accepted as a native trace")
	}
	if _, err := Open(native, true); err == nil {
		t.Error("native trace accepted as pcap")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestClosedSourceIdentity: Next after Close must fail with an error
// errors.Is-identifiable as ErrClosedSource, for every in-process source.
func TestClosedSourceIdentity(t *testing.T) {
	pkts := testPackets(t)[:4]
	trace, err := NewTraceSource(bytes.NewReader(encodeNative(t, pkts)))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPcapSource(bytes.NewReader(encodePcap(t, pkts)))
	if err != nil {
		t.Fatal(err)
	}
	loop, err := NewLoop(func() (PacketSource, error) { return NewSlice(pkts), nil }, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]PacketSource{
		"trace": trace,
		"pcap":  pc,
		"slice": NewSlice(pkts),
		"loop":  loop,
	} {
		if err := src.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		var p packet.Packet
		if err := src.Next(&p); !errors.Is(err, ErrClosedSource) {
			t.Errorf("%s: Next after Close = %v, want ErrClosedSource identity", name, err)
		}
		if err := src.Close(); err != nil {
			t.Errorf("%s: double Close = %v", name, err)
		}
	}
}

// TestSliceSource covers the in-memory source.
func TestSliceSource(t *testing.T) {
	pkts := testPackets(t)[:10]
	src := NewSlice(pkts)
	got := drain(t, src)
	if len(got) != 10 {
		t.Fatalf("%d packets, want 10", len(got))
	}
	var p packet.Packet
	if err := src.Next(&p); !errors.Is(err, io.EOF) {
		t.Errorf("after EOF: %v", err)
	}
}

// TestLoopShiftsTime: the looped stream must stay non-decreasing across
// cycle boundaries and replay the same packets each cycle.
func TestLoopShiftsTime(t *testing.T) {
	pkts := testPackets(t)[:25]
	opens := 0
	loop, err := NewLoop(func() (PacketSource, error) {
		opens++
		return NewSlice(pkts), nil
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	defer loop.Close()
	last := -1.0
	var p packet.Packet
	for i := 0; i < 3*len(pkts); i++ {
		if err := loop.Next(&p); err != nil {
			t.Fatal(err)
		}
		if p.Time < last {
			t.Fatalf("packet %d: time went backwards (%g < %g)", i, p.Time, last)
		}
		last = p.Time
		if p.Key != pkts[i%len(pkts)].Key {
			t.Fatalf("packet %d: key diverged from cycle replay", i)
		}
	}
	if opens != 3 {
		t.Errorf("opened %d cycles, want 3", opens)
	}
}

// TestLoopEmptyCycle: a trace with no packets must yield EOF, not spin.
func TestLoopEmptyCycle(t *testing.T) {
	loop, err := NewLoop(func() (PacketSource, error) { return NewSlice(nil), nil }, 0)
	if err != nil {
		t.Fatal(err)
	}
	var p packet.Packet
	if err := loop.Next(&p); !errors.Is(err, io.EOF) {
		t.Fatalf("empty loop: %v, want EOF", err)
	}
	if _, err := NewLoop(func() (PacketSource, error) { return NewSlice(nil), nil }, -1); err == nil {
		t.Error("negative gap accepted")
	}
}

// loopInner is the inner source of the Loop close tests: a slice source
// that counts its Closes and, with hold set, blocks once its packets are
// out until it is closed — a live capture with nothing arriving. Loop
// reads an inner source only through NextBlock, all that it overrides.
type loopInner struct {
	Slice
	hold   bool
	closed chan struct{}
	closes atomic.Int32
}

func newLoopInner(pkts []packet.Packet, hold bool) *loopInner {
	return &loopInner{Slice: Slice{pkts: pkts}, hold: hold, closed: make(chan struct{})}
}

func (s *loopInner) NextBlock(buf []packet.Packet) (int, error) {
	n, err := s.Slice.NextBlock(buf)
	if s.hold && errors.Is(err, io.EOF) {
		<-s.closed
		return s.Slice.NextBlock(buf)
	}
	return n, err
}

func (s *loopInner) Close() error {
	if s.closes.Add(1) == 1 {
		close(s.closed)
	}
	return s.Slice.Close()
}

// TestLoopCloseDuringNext pins Loop's one cross-goroutine contract, which
// Next keeps without taking the lock per packet: a Close from another
// goroutine unblocks a pending Next with an ErrClosedSource error, nothing
// is opened once Close has returned, and every inner source the loop
// opened is closed exactly once — whether Close lands mid-cycle or on the
// EOF-to-reopen boundary. Under -race (make race) it also shows that
// Close shares no unguarded state with the reader.
func TestLoopCloseDuringNext(t *testing.T) {
	pkts := testPackets(t)[:3]

	t.Run("blocked mid-cycle", func(t *testing.T) {
		inner := newLoopInner(pkts, true)
		loop, err := NewLoop(func() (PacketSource, error) { return inner, nil }, 0)
		if err != nil {
			t.Fatal(err)
		}
		read := make(chan struct{}, len(pkts)) // one send per packet: the reader never waits on the test
		done := make(chan error, 1)
		go func() {
			var p packet.Packet
			for {
				if err := loop.Next(&p); err != nil {
					done <- err
					return
				}
				read <- struct{}{}
			}
		}()
		for range pkts {
			<-read
		}
		// The reader is in, or about to enter, the Next that blocks.
		if err := loop.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := <-done; !errors.Is(err, ErrClosedSource) {
			t.Fatalf("Next unblocked by Close = %v, want ErrClosedSource identity", err)
		}
		if n := inner.closes.Load(); n != 1 {
			t.Fatalf("inner source closed %d times, want 1", n)
		}
	})

	t.Run("racing the reopen boundary", func(t *testing.T) {
		for iter := 0; iter < 300; iter++ {
			var (
				opened        []*loopInner // appended under the loop's lock, read after the reader exits
				closeReturned atomic.Bool
			)
			loop, err := NewLoop(func() (PacketSource, error) {
				if closeReturned.Load() {
					return nil, errors.New("open called after Close returned")
				}
				s := newLoopInner(pkts[:1+iter%2], false) // a boundary every packet or two
				opened = append(opened, s)
				return s, nil
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			started := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				var p packet.Packet
				for n := 0; ; n++ {
					if n == iter%5 {
						close(started)
					}
					if err := loop.Next(&p); err != nil {
						done <- err
						return
					}
				}
			}()
			<-started
			if err := loop.Close(); err != nil {
				t.Fatalf("iteration %d: Close: %v", iter, err)
			}
			closeReturned.Store(true)
			if err := <-done; !errors.Is(err, ErrClosedSource) {
				t.Fatalf("iteration %d: Next after Close = %v, want ErrClosedSource identity", iter, err)
			}
			for i, s := range opened {
				if n := s.closes.Load(); n != 1 {
					t.Fatalf("iteration %d: inner source %d of %d closed %d times, want 1", iter, i, len(opened), n)
				}
			}
		}
	})
}

// TestLiveStubHermetic: the default build's live capture must fail with
// the ErrLiveUnsupported identity — no sockets, no privileges.
func TestLiveStubHermetic(t *testing.T) {
	src, err := NewLive("lo", 0)
	if err == nil {
		// Built with -tags live on linux as root: capture genuinely opens —
		// that build is exercised manually, not in CI.
		src.Close()
		t.Skip("live capture available in this build")
	}
	if !errors.Is(err, ErrLiveUnsupported) {
		// A -tags live build without privileges fails with EPERM instead of
		// the stub sentinel; only the hermetic build pins the identity.
		t.Skipf("live build failed with a non-stub error: %v", err)
	}
}

package flowrank

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"flowrank/internal/layers"
	"flowrank/internal/packet"
	"flowrank/internal/pcap"
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

// TestSourceFacadeConformance: the facade constructors produce sources
// that replay identical streams and stop after Close. The replay
// decorators, the trace reader and the error identities are
// internal/source's and tested there.
func TestSourceFacadeConformance(t *testing.T) {
	pkts := facadePackets(t)

	// Slice source replays verbatim.
	var slice *SliceSource = NewSliceSource(pkts)
	got := drain(t, slice)
	if len(got) != len(pkts) || got[0] != pkts[0] || got[len(got)-1] != pkts[len(pkts)-1] {
		t.Fatalf("slice replay: %d packets, want %d", len(got), len(pkts))
	}

	// A native trace file replays every packet through OpenSource.
	path := writeTrace(t, "trace.pkts", encodeNative(t, pkts))
	opened, err := OpenSource(path, false)
	if err != nil {
		t.Fatal(err)
	}
	fromFile := drain(t, opened)
	if len(fromFile) != len(pkts) {
		t.Fatalf("trace file replay: %d packets, want %d", len(fromFile), len(pkts))
	}

	// A closed source yields nothing more.
	s := NewSliceSource(pkts)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := s.Next(&p); err == nil || err == io.EOF {
		t.Fatalf("Next after Close = %v, want the closed-source error", err)
	}
}

// encodeNative writes packets in the native trace format.
func encodeNative(t *testing.T, pkts []Packet) []byte {
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

// encodePcap writes packets as an Ethernet capture, a frame per packet
// carrying its key and its size on the wire.
func encodePcap(t *testing.T, pkts []Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	const headers = layers.EthernetHeaderLen + layers.IPv4MinHeaderLen + layers.TCPMinHeaderLen
	var frame []byte
	for _, p := range pkts {
		if frame, err = layers.Frame(frame[:0], p.Key, max(p.Size-headers, 0), 0); err != nil {
			t.Fatal(err)
		}
		if err := w.Write(pcap.Packet{Time: p.Time, Data: frame, OrigLen: p.Size}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// writeTrace writes data to a file of the test's and returns its path.
func writeTrace(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSourceNextMatchesNextBlock: the facade's Next, on OpenSource's
// sources (a native trace, whole and cut inside its last record, and a
// capture) and on NewSliceSource's, yields the packets NextBlock yields,
// then the same errors, and allocates nothing per packet.
func TestSourceNextMatchesNextBlock(t *testing.T) {
	pkts := facadePackets(t)
	const runs = 100 // AllocsPerRun makes runs+1 calls
	if len(pkts) <= runs+1 {
		t.Fatalf("%d packets: too few for %d reads", len(pkts), runs+1)
	}
	native := encodeNative(t, pkts)
	opener := func(path string, isPcap bool) func() PacketSource {
		return func() PacketSource {
			src, err := OpenSource(path, isPcap)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
	}
	for name, open := range map[string]func() PacketSource{
		"native":           opener(writeTrace(t, "trace.pkts", native), false),
		"native truncated": opener(writeTrace(t, "cut.pkts", native[:len(native)-3]), false),
		"pcap":             opener(writeTrace(t, "trace.pcap", encodePcap(t, pkts)), true),
		"slice":            func() PacketSource { return NewSliceSource(pkts) },
	} {
		ref := open()
		var want []Packet
		var wantErrs []error // the first error and the one after it
		buf := make([]Packet, 256)
		for len(wantErrs) < 2 {
			n, err := ref.NextBlock(buf)
			if err != nil {
				wantErrs = append(wantErrs, err)
			}
			want = append(want, buf[:n]...)
		}
		ref.Close()
		if end := map[bool]error{false: io.EOF, true: io.ErrUnexpectedEOF}[name == "native truncated"]; !errors.Is(wantErrs[0], end) {
			t.Fatalf("%s: NextBlock ended with %v, want %v", name, wantErrs[0], end)
		}

		src := open()
		var p Packet
		for i := range want {
			if err := src.Next(&p); err != nil || p != want[i] {
				t.Fatalf("%s: Next %d = %+v, %v; NextBlock read %+v", name, i, p, err, want[i])
			}
		}
		for _, wantErr := range wantErrs {
			if err := src.Next(&p); err == nil || err.Error() != wantErr.Error() || p != want[len(want)-1] {
				t.Fatalf("%s: Next after the last packet = %v, leaving %+v; NextBlock read %v", name, err, p, wantErr)
			}
		}
		src.Close()

		src = open()
		allocs := testing.AllocsPerRun(runs, func() {
			if err := src.Next(&p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per Next, want 0", name, allocs)
		}
		src.Close()
	}
}

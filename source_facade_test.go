package flowrank

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

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
	path := filepath.Join(t.TempDir(), "trace.pkts")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
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

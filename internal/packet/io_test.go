package packet

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"

	"flowrank/internal/flow"
	"flowrank/internal/randx"
)

func samplePackets(n int, seed uint64) []Packet {
	g := randx.New(seed)
	pkts := make([]Packet, n)
	t := 0.0
	for i := range pkts {
		t += g.Exponential(0.001)
		pkts[i] = Packet{
			Time: t,
			Key: flow.Key{
				Src:     flow.Addr{byte(g.IntN(256)), byte(g.IntN(256)), byte(g.IntN(256)), byte(g.IntN(256))},
				Dst:     flow.Addr{10, 0, byte(g.IntN(256)), byte(g.IntN(256))},
				SrcPort: uint16(g.IntN(65536)),
				DstPort: uint16(g.IntN(65536)),
				Proto:   flow.ProtoTCP,
			},
			Size: 40 + g.IntN(1460),
		}
	}
	return pkts
}

// readOne reads the next record into *p through a block of one packet.
func readOne(r *Reader, p *Packet) error {
	var one [1]Packet
	if _, err := r.ReadBlock(one[:]); err != nil {
		return err
	}
	*p = one[0]
	return nil
}

func TestPacketRoundTrip(t *testing.T) {
	pkts := samplePackets(5000, 1)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
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

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pkts {
		var got Packet
		if err := readOne(r, &got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Key != want.Key || got.Size != want.Size {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		if math.Abs(got.Time-want.Time) > 1e-9 {
			t.Fatalf("record %d: time %g vs %g", i, got.Time, want.Time)
		}
	}
	if err := readOne(r, new(Packet)); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestPacketOutOfOrderTimestamps(t *testing.T) {
	// Delta encoding is zig-zag so reordered timestamps survive.
	pkts := []Packet{{Time: 5}, {Time: 2}, {Time: 9}, {Time: 0}}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, p := range pkts {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pkts {
		var got Packet
		if err := readOne(r, &got); err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Time-want.Time) > 1e-9 {
			t.Errorf("record %d: time %g, want %g", i, got.Time, want.Time)
		}
	}
}

func TestPacketBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestPacketTruncatedStream(t *testing.T) {
	pkts := samplePackets(10, 2)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, p := range pkts {
		w.Write(p)
	}
	w.Flush()
	full := buf.Bytes()
	// Cut in the middle of a record (not at a record boundary).
	cut := full[:len(full)-7]
	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for range len(cut) { // every read consumes a byte or fails
		if err := readOne(r, new(Packet)); err != nil {
			lastErr = err
			break
		}
	}
	if lastErr == nil || lastErr == io.EOF {
		t.Error("truncation should not look like clean EOF")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := readOne(r, new(Packet)); err != io.EOF {
		t.Errorf("empty trace: err = %v, want EOF", err)
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(v int64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPacketWrite(b *testing.B) {
	pkts := samplePackets(1000, 9)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		w, _ := NewWriter(&buf)
		for _, p := range pkts {
			w.Write(p)
		}
		w.Flush()
	}
	b.SetBytes(int64(len(pkts)))
}

func BenchmarkPacketRead(b *testing.B) {
	pkts := samplePackets(1000, 9)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, p := range pkts {
		w.Write(p)
	}
	w.Flush()
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := NewReader(bytes.NewReader(data))
		buf := make([]Packet, BlockLen)
		for {
			if _, err := r.ReadBlock(buf); err != nil {
				break
			}
		}
	}
	b.SetBytes(int64(len(pkts)))
}

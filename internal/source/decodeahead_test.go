package source

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"flowrank/internal/layers"
	"flowrank/internal/packet"
	"flowrank/internal/pcap"
)

// Open decodes a large capture ahead on a goroutine of its own (pcapAhead).
// Whatever a reader can observe must be what the synchronous PcapSource
// gives it over the same bytes: the same packets, then the same error,
// then the same answer again.

// captureOf writes recs as a capture with the given snap length and
// returns it with the offset of each record in it.
func captureOf(t *testing.T, snap uint32, recs []pcap.Packet) (data []byte, offs []int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		offs = append(offs, buf.Len())
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), offs
}

// framesOf frames n packets of the test trace, repeated as often as it
// takes, with payloads of up to 199 bytes so that a batch is a few blocks.
func framesOf(t *testing.T, n int) []pcap.Packet {
	t.Helper()
	pkts := testPackets(t)
	recs := make([]pcap.Packet, n)
	for i := range recs {
		p := pkts[i%len(pkts)]
		frame, err := layers.Frame(nil, p.Key, p.Size%200, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = pcap.Packet{Time: float64(i) * 1e-4, Data: frame, OrigLen: p.Size}
	}
	return recs
}

// sameError: both nil, or the same message and an errors.Is match of the
// reference's innermost error.
func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	root := want
	for errors.Unwrap(root) != nil {
		root = errors.Unwrap(root)
	}
	return got.Error() == want.Error() && errors.Is(got, root)
}

// diffDecodeAhead reads data through Open's decode-ahead and through a
// synchronous PcapSource side by side, until the first error and two
// calls past it, and returns how many packets came before the error.
func diffDecodeAhead(t *testing.T, name string, data []byte) int {
	t.Helper()
	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ahead, err := open(path, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ahead.Close()
	if _, ok := ahead.(*pcapAhead); !ok {
		t.Fatalf("%s: Open returned a %T, not the decode-ahead", name, ahead)
	}
	ref, err := NewPcapSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n, after := 0, -1
	for after < 2 {
		var got, want packet.Packet
		gerr, werr := ahead.Next(&got), ref.Next(&want)
		if !sameError(gerr, werr) {
			t.Fatalf("%s: after %d packets: %v decoding ahead, %v synchronously", name, n, gerr, werr)
		}
		if got != want {
			t.Fatalf("%s: packet %d: %+v decoding ahead, %+v synchronously", name, n, got, want)
		}
		switch {
		case after >= 0:
			after++
		case werr != nil:
			after = 0
		default:
			n++
		}
	}
	return n
}

// TestDecodeAheadMatchesPcapSource: captures spanning several batches,
// cut inside a record header and inside a record body in the middle of a
// batch, on a batch boundary and in the last batch, with undecodable
// frames between the valid ones, and with a record larger than a block.
func TestDecodeAheadMatchesPcapSource(t *testing.T) {
	recs := framesOf(t, 3*batchPackets+1234)
	data, offs := captureOf(t, 0, recs)
	if n := diffDecodeAhead(t, "whole", data); n != len(recs) {
		t.Errorf("whole: %d packets, want %d", n, len(recs))
	}
	for _, k := range []int{batchPackets + 100, 2 * batchPackets, len(recs) - 5} {
		for _, cut := range []struct {
			name string
			at   int
		}{{"at a record", 0}, {"in a header", 7}, {"in a body", 16 + 10}} {
			name := cut.name
			if n := diffDecodeAhead(t, name, data[:offs[k]+cut.at]); n != k {
				t.Errorf("cut %s of record %d: %d packets, want %d", name, k, n, k)
			}
		}
	}

	// Every third record undecodable: too short, not IPv4, a bad checksum.
	var mixed []pcap.Packet
	valid := 0
	for i, r := range framesOf(t, 3*batchPackets/2) {
		switch i % 9 {
		case 2:
			mixed = append(mixed, pcap.Packet{Time: r.Time, Data: []byte{1, 2, 3, byte(i)}})
		case 5:
			bad := append([]byte(nil), r.Data...)
			bad[12], bad[13] = 0x08, 0x06 // ARP
			mixed = append(mixed, pcap.Packet{Time: r.Time, Data: bad})
		case 8:
			bad := append([]byte(nil), r.Data...)
			bad[layers.EthernetHeaderLen+10] ^= 0xff
			mixed = append(mixed, pcap.Packet{Time: r.Time, Data: bad})
		}
		mixed = append(mixed, r)
		valid++
	}
	data, offs = captureOf(t, 0, mixed)
	if n := diffDecodeAhead(t, "undecodable", data); n != valid {
		t.Errorf("undecodable frames between %d valid ones: %d packets", valid, n)
	}
	diffDecodeAhead(t, "undecodable, cut", data[:offs[len(mixed)/2]+20])

	// Records larger than a block, padded past their IPv4 total length:
	// read into a buffer of their own, and still keyed.
	recs = framesOf(t, batchPackets+100)
	var bigAt []int
	for _, k := range []int{10, batchPackets - 1, batchPackets + 5} {
		big := make([]byte, 300_000)
		copy(big, recs[k].Data)
		recs[k].Data = big
		bigAt = append(bigAt, k)
	}
	data, offs = captureOf(t, 1<<20, recs)
	if n := diffDecodeAhead(t, "larger than a block", data); n != len(recs) {
		t.Errorf("larger than a block: %d packets, want %d", n, len(recs))
	}
	for _, k := range bigAt {
		if n := diffDecodeAhead(t, "larger than a block, cut", data[:offs[k]+16+150_000]); n != k {
			t.Errorf("cut in the large record %d: %d packets, want %d", k, n, k)
		}
	}
}

// TestCloseDuringDecodeAhead: a Close from another goroutine, at any
// point of a capture being decoded ahead, ends the reader's stream with
// ErrClosedSource, and what it got before is a prefix of the capture: no
// packet skipped, none out of place.
func TestCloseDuringDecodeAhead(t *testing.T) {
	oneP(t) // the reader goroutine is gone before a later test counts (ownGoroutines)
	data, packets := manyBlocks(t, true)
	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := NewPcapSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, ref)
	for trial := 0; trial < 16; trial++ {
		src, err := open(path, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, ended := 0, make(chan error, 1) // one send: the reader never waits on the test
		go func() {
			var p packet.Packet
			for {
				if err := src.Next(&p); err != nil {
					ended <- err
					return
				}
				if n >= len(want) || p != want[n] {
					ended <- errors.New("a packet that is not the capture's next")
					return
				}
				n++
			}
		}()
		time.Sleep(time.Duration(trial) * 100 * time.Microsecond)
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		err = <-ended
		if n == packets && errors.Is(err, io.EOF) {
			continue // read to the end before the Close
		}
		if !errors.Is(err, ErrClosedSource) {
			t.Fatalf("trial %d: after %d packets: %v, want ErrClosedSource", trial, n, err)
		}
	}
}

// TestDecodeAheadLabel: a goroutine profile taken while a decode-ahead
// source is open names its goroutine role=decode-ahead.
func TestDecodeAheadLabel(t *testing.T) {
	data, _ := manyBlocks(t, true) // the goroutine cannot reach the end before a read
	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := open(path, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// A packet read means the goroutine has run, so it is under its label.
	if _, err := src.NextBlock(make([]packet.Packet, 1)); err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range strings.Split(prof.String(), "\n\n") {
		if strings.Contains(rec, "(*pcapAhead).decode") {
			found = true
			if !strings.Contains(rec, `# labels: {"role":"decode-ahead"}`) {
				t.Errorf("decode-ahead goroutine without its label:\n%s", rec)
			}
		}
	}
	if !found {
		t.Errorf("no decode-ahead goroutine in the profile:\n%s", prof.String())
	}
}

package source

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowrank/internal/packet"
)

// The trace readers decode records out of a buffer they fill ahead of the
// records they return. These tests pin the source contracts that
// buffering could break.

// bothSources opens the same packets as a TraceSource and a PcapSource.
func bothSources(t *testing.T, pkts []packet.Packet) map[string]PacketSource {
	t.Helper()
	trace, err := NewTraceSource(bytes.NewReader(encodeNative(t, pkts)))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPcapSource(bytes.NewReader(encodePcap(t, pkts)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]PacketSource{"trace": trace, "pcap": pc}
}

// TestCloseDropsBufferedPackets: Close wins over buffering. After one
// read the whole trace sits in the reader's buffer; a read after Close
// must still fail with ErrClosedSource, not serve from it.
func TestCloseDropsBufferedPackets(t *testing.T) {
	for name, src := range bothSources(t, testPackets(t)) {
		var p packet.Packet
		if err := next(src, &p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := src.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if err := next(src, &p); !errors.Is(err, ErrClosedSource) {
			t.Errorf("%s: read after Close = %v, want ErrClosedSource", name, err)
		}
	}
}

// streamsFromPipe feeds open a stream through an io.Pipe one record at a
// time, each record in two writes, and requires every packet to come out
// of a read of one packet — or of one with room for more, when blocks is
// set — before the following record (or the end of the stream) is
// written: a reader waiting to fill its block would hang here. It returns
// only once the writer has, so the goroutine counts of later tests
// (readahead_test.go) never see it exit.
func streamsFromPipe(t *testing.T, header []byte, records [][]byte, blocks bool, open func(io.Reader) (PacketSource, error)) {
	t.Helper()
	pr, pw := io.Pipe()
	step, done := make(chan struct{}), make(chan struct{})
	defer func() { <-done }()
	defer close(step) // releases the writer when the test bails out early
	go func() {
		defer close(done)
		defer pw.Close()
		pw.Write(header)
		for _, rec := range records {
			pw.Write(rec[:len(rec)/2])
			pw.Write(rec[len(rec)/2:])
			<-step // written in full: hold the next one back
		}
	}()
	defer pr.Close() // fails the writer's pending Write, likewise

	src, err := open(pr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		got := make(chan error, 1) // one send, never blocks the reader goroutine
		go func() {
			if !blocks {
				var p packet.Packet
				got <- next(src, &p)
				return
			}
			n, err := src.NextBlock(make([]packet.Packet, 8))
			if err == nil && n != 1 {
				err = fmt.Errorf("NextBlock returned %d packets of one record", n)
			}
			got <- err
		}()
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("record %d not delivered once its last byte was written: the reader waits for bytes beyond it", i)
		}
		step <- struct{}{}
	}
	var p packet.Packet
	if err := next(src, &p); !errors.Is(err, io.EOF) {
		t.Errorf("after the writer closed: %v, want io.EOF", err)
	}
}

// splitRecords cuts an encoded stream into its header and one byte slice
// per record, by encoding growing prefixes of pkts.
func splitRecords(t *testing.T, pkts []packet.Packet, encode func(testing.TB, []packet.Packet) []byte) (header []byte, records [][]byte) {
	t.Helper()
	header = encode(t, nil)
	prev := len(header)
	for i := range pkts {
		enc := encode(t, pkts[:i+1])
		records = append(records, enc[prev:])
		prev = len(enc)
	}
	return header, records
}

func TestPcapSourceStreamsFromPipe(t *testing.T) {
	header, records := splitRecords(t, testPackets(t)[:5], encodePcap)
	for _, blocks := range []bool{false, true} {
		streamsFromPipe(t, header, records, blocks, func(r io.Reader) (PacketSource, error) { return NewPcapSource(r) })
	}
}

func TestTraceSourceStreamsFromPipe(t *testing.T) {
	header, records := splitRecords(t, testPackets(t)[:5], encodeNative)
	for _, blocks := range []bool{false, true} {
		streamsFromPipe(t, header, records, blocks, func(r io.Reader) (PacketSource, error) { return NewTraceSource(r) })
	}
}

// TestSourceNextAllocFree: decoding in place means a packet costs no
// allocation on either trace source in steady state, nor on Open's
// decode-ahead of a capture across the hand-off of a batch, whether read a
// packet at a time or in blocks of the pipeline's length.
func TestSourceNextAllocFree(t *testing.T) {
	const runs = 100 // AllocsPerRun makes runs+1 calls
	native, _ := manyBlocks(t, false)
	capture, _ := manyBlocks(t, true)
	path := filepath.Join(t.TempDir(), "capture.pcap")
	if err := os.WriteFile(path, capture, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, per := range []int{1, readBlock} { // packets per read
		trace, err := NewTraceSource(bytes.NewReader(native))
		if err != nil {
			t.Fatal(err)
		}
		pc, err := NewPcapSource(bytes.NewReader(capture))
		if err != nil {
			t.Fatal(err)
		}
		ahead, err := open(path, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]packet.Packet, per)
		for name, src := range map[string]PacketSource{"trace": trace, "pcap": pc, "pcap, decoding ahead": ahead} {
			read := func() {
				if _, err := src.NextBlock(buf); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			skip := 1 // the first read fills the block
			if src == ahead {
				skip = max(1, (batchPackets-per*runs/2)/per) // a batch hand-off inside the runs
			}
			for i := 0; i < skip; i++ {
				read()
			}
			if allocs := testing.AllocsPerRun(runs, read); allocs != 0 {
				t.Errorf("%s, blocks of %d: %v allocs per read, want 0", name, per, allocs)
			}
			src.Close()
		}
	}
}

// TestPcapSourceRejectsLinkType: a capture that is not Ethernet would be
// parsed at the wrong offsets — every frame skipped or mis-keyed, an empty
// or wrong report with exit 0 — so it is refused at open.
func TestPcapSourceRejectsLinkType(t *testing.T) {
	hdr := encodePcap(t, nil) // the 24-byte global header, Ethernet
	for _, tc := range []struct {
		name     string
		linkType uint32
	}{{"raw IP", 101}, {"linux cooked", 113}, {"null", 0}} {
		raw := append([]byte(nil), hdr...)
		binary.LittleEndian.PutUint32(raw[20:], tc.linkType)
		_, err := NewPcapSource(bytes.NewReader(raw))
		if !errors.Is(err, ErrUnsupportedLinkType) {
			t.Errorf("%s: %v, want ErrUnsupportedLinkType", tc.name, err)
		} else if want := fmt.Sprintf("link type %d", tc.linkType); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, want)
		}
		// Through Open, which must not leak the file either way.
		path := filepath.Join(t.TempDir(), "cooked.pcap")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, true); !errors.Is(err, ErrUnsupportedLinkType) {
			t.Errorf("%s: Open = %v, want ErrUnsupportedLinkType", tc.name, err)
		}
	}
	if _, err := NewPcapSource(bytes.NewReader(hdr)); err != nil {
		t.Errorf("Ethernet capture refused: %v", err)
	}
}

// BenchmarkSourceDecode measures what the source layer charges every
// packet before the sampling decision, in ns/pkt, read by NextBlock in
// blocks of the pipeline's length, the path Run takes. native and pcap
// decode an in-memory trace, built once, synchronously: one iteration
// reads it as many times over, each through a new source, as it takes to
// decode decodeAtLeast packets, so that a run resolves steps of a few
// ns/pkt and no file system is in the number. pcap-large is a 72 MB
// capture file above Open's threshold, decoded ahead in batches of keyed
// packets, and times that in steady state, read syscalls included.
func BenchmarkSourceDecode(b *testing.B) {
	const decodeAtLeast = 2_000_000
	pkts := genPackets(b, 20, 150) // ~28k packets: 0.5 MB native, 14 MB pcap
	buf := make([]packet.Packet, readBlock)
	for _, format := range []struct {
		name   string
		isPcap bool
		repeat int  // the trace is the packets this many times over
		file   bool // read from a file through Open, once an iteration
		encode func(testing.TB, []packet.Packet) []byte
	}{
		{"native", false, 8, false, encodeNative},
		{"pcap", true, 1, false, encodePcap},
		{"pcap-large", true, 5, true, encodePcap},
	} {
		var trace []packet.Packet
		for i := 0; i < format.repeat; i++ {
			trace = append(trace, pkts...) // time may go back: the sources do not care
		}
		data := format.encode(b, trace)
		passes := 1
		open := func() (PacketSource, error) {
			if format.isPcap {
				return NewPcapSource(bytes.NewReader(data))
			}
			return NewTraceSource(bytes.NewReader(data))
		}
		if format.file {
			path := filepath.Join(b.TempDir(), "trace")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				b.Fatal(err)
			}
			open = func() (PacketSource, error) { return Open(path, format.isPcap) }
		} else {
			passes = (decodeAtLeast + len(trace) - 1) / len(trace)
		}
		b.Run(format.name+"/NextBlock", func(b *testing.B) {
			b.SetBytes(int64(passes * len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N*passes; i++ {
				src, err := open()
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					k, err := src.NextBlock(buf)
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					n += k
				}
				if n != len(trace) {
					b.Fatalf("decoded %d packets, want %d", n, len(trace))
				}
				src.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*passes*len(trace)), "ns/pkt")
		})
	}
}

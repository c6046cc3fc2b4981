package source

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"flowrank/internal/packet"
)

// The block-read contract: on every source, NextBlock at any buffer length
// yields exactly the packets it yields one at a time, then the same
// errors, and never packets and an error from one call.

// blockSizes are the buffer lengths the conformance tests read with beside
// one packet: two, a length that cuts every batch and block somewhere, the
// pipeline's readBlock, and more than a decode-ahead batch.
var blockSizes = []int{2, 7, readBlock, 5000}

// tape is what a run of reads returned: the packets, and the text of each
// error with the number of packets read before it.
type tape struct {
	pkts []packet.Packet
	errs []readErr
}

type readErr struct {
	at  int
	msg string
}

// tapeLimit bounds a tape: a read stops once it holds this many packets,
// or after two errors in a row.
type tapeLimit struct{ packets int }

// blockTape reads src size packets at a time, checking every call against
// the contract: 1 <= n <= size with a nil error, or 0 with an error.
func blockTape(t *testing.T, src PacketSource, size int, lim tapeLimit) tape {
	t.Helper()
	tp := tape{pkts: make([]packet.Packet, 0, lim.packets+size)}
	buf := make([]packet.Packet, size)
	for errs := 0; len(tp.pkts) < lim.packets && errs < 2; {
		n, err := src.NextBlock(buf)
		if err != nil {
			if n != 0 {
				t.Fatalf("NextBlock(%d) = %d packets and %v", size, n, err)
			}
			tp.errs = append(tp.errs, readErr{len(tp.pkts), err.Error()})
			errs++
			continue
		}
		if n < 1 || n > size {
			t.Fatalf("NextBlock(%d) = %d packets, nil error", size, n)
		}
		tp.pkts = append(tp.pkts, buf[:n]...)
		errs = 0
	}
	return tp
}

// sameTape fails unless got starts with want, the 1-packet tape: a longer
// block may run past the packet limit that tape stopped at, never differ
// before it.
func sameTape(t *testing.T, label string, got, want tape) {
	t.Helper()
	if len(got.pkts) < len(want.pkts) {
		t.Fatalf("%s: %d packets, the 1-packet tape has %d", label, len(got.pkts), len(want.pkts))
	}
	for i := range want.pkts {
		if got.pkts[i] != want.pkts[i] {
			t.Fatalf("%s: packet %d is %+v, the 1-packet tape's is %+v", label, i, got.pkts[i], want.pkts[i])
		}
	}
	errs := got.errs
	for len(errs) > 0 && errs[len(errs)-1].at > len(want.pkts) {
		errs = errs[:len(errs)-1]
	}
	if !slices.Equal(errs, want.errs) {
		t.Fatalf("%s: errors %v, the 1-packet tape's %v", label, errs, want.errs)
	}
}

// blockCase is one source to check: open returns a fresh one over the same
// stream each call.
type blockCase struct {
	name string
	open func(t *testing.T) PacketSource
	lim  tapeLimit
	// end is what the tape must end with after all the stream's packets,
	// checked with errors.Is; nil for a tape cut at the packet limit.
	end     error
	packets int // packets before end
}

// checkBlocks holds every case to the contract and to its own ending: the
// tape read a packet at a time is the reference every longer block must
// reproduce.
func checkBlocks(t *testing.T, cases []blockCase) {
	for _, c := range cases {
		src := c.open(t)
		want := blockTape(t, src, 1, c.lim)
		src.Close()
		if c.end != nil {
			n := len(want.pkts)
			if n != c.packets || len(want.errs) != 2 || want.errs[0].at != n {
				t.Fatalf("%s: 1-packet reads got %d packets and errors %v, want %d packets then two errors", c.name, n, want.errs, c.packets)
			}
			src = c.open(t)
			var p packet.Packet
			for i := 0; i < n; i++ {
				next(src, &p)
			}
			if err := next(src, &p); !errors.Is(err, c.end) {
				t.Fatalf("%s: the stream ends with %v, want %v", c.name, err, c.end)
			}
			src.Close()
		}
		for _, size := range blockSizes {
			src := c.open(t)
			got := blockTape(t, src, size, c.lim)
			src.Close()
			sameTape(t, fmt.Sprintf("%s, blocks of %d", c.name, size), got, want)
			if c.end != nil && (len(got.pkts) != len(want.pkts) || len(got.errs) != len(want.errs)) {
				t.Fatalf("%s, blocks of %d: read past the end the 1-packet tape met", c.name, size)
			}
		}
	}
}

// blockSources returns a case per source over data — the packets encoded
// as a native trace, or as a capture when isPcap — which holds n packets
// and ends with end: every trace source, over the bytes and opened at a
// zero threshold (decoding a capture ahead), a Loop over the file (lim
// caps its endless stream), Paced and Counted.
func blockSources(t *testing.T, label string, data []byte, isPcap bool, n int, end error) []blockCase {
	path := filepath.Join(t.TempDir(), "trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sync := func(t *testing.T) PacketSource {
		var src PacketSource
		var err error
		if isPcap {
			src, err = NewPcapSource(bytes.NewReader(data))
		} else {
			src, err = NewTraceSource(bytes.NewReader(data))
		}
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	opened := func(t *testing.T) PacketSource {
		src, err := open(path, isPcap, 0)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	loop := func(t *testing.T) PacketSource {
		l, err := NewLoop(func() (PacketSource, error) { return Open(path, isPcap) }, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	paced := func(t *testing.T) PacketSource {
		p := Pace(sync(t), 1)
		p.sleep = func(time.Duration) {}
		return p
	}
	counted := func(t *testing.T) PacketSource { return &Counted{PacketSource: opened(t)} }
	whole := tapeLimit{packets: n + 1} // stops at the end's two errors
	cases := []blockCase{
		{name: "sync", open: sync, lim: whole, end: end, packets: n},
		{name: "opened", open: opened, lim: whole, end: end, packets: n},
		{name: "paced", open: paced, lim: whole, end: end, packets: n},
		{name: "counted", open: counted, lim: whole, end: end, packets: n},
	}
	// The loop runs on — past a truncated cycle's error too, once the
	// retried read meets the end of the file — so its tape is capped past
	// two cycles.
	cases = append(cases, blockCase{name: "loop", open: loop, lim: tapeLimit{packets: n + n/2}})
	for i := range cases {
		cases[i].name = fmt.Sprintf("%s %s", label, cases[i].name)
	}
	return cases
}

// fewBlocks encodes enough copies of the test packets, at rising times,
// to fill the readers' buffer three times in either format, so that
// records straddle two refills and a capture decoded ahead spans several
// batches.
func fewBlocks(t *testing.T, isPcap bool) (data []byte, packets int) {
	t.Helper()
	pkts := testPackets(t)
	encode := encodeNative
	if isPcap {
		encode = encodePcap
	}
	var trace []packet.Packet
	for len(data) < 3*bufSize {
		trace = append(trace, pkts...)
		for i := range trace {
			trace[i].Time = float64(i) * 1e-3
			if isPcap {
				trace[i].Size = 64 // small frames: several batches in three blocks
			}
		}
		data = encode(t, trace)
	}
	if isPcap && len(trace) < 2*batchPackets {
		t.Fatalf("%d packets: fewer than two decode-ahead batches", len(trace))
	}
	return data, len(trace)
}

// TestNextBlockMatchesNext: every source, at every block length (2, 7,
// 256, 5000), over traces of three buffers (so records straddle the
// 256 KiB buffer the readers decode from), whole or cut inside their
// final record, yields the 1-packet tape: the same packets as NextBlock of
// one packet, then the same errors — io.EOF again and again after a clean
// end, a wrapped io.ErrUnexpectedEOF after a truncated one.
func TestNextBlockMatchesNext(t *testing.T) {
	for _, isPcap := range []bool{false, true} {
		format := map[bool]string{false: "native", true: "pcap"}[isPcap]
		data, n := fewBlocks(t, isPcap)
		checkBlocks(t, blockSources(t, format, data, isPcap, n, io.EOF))
		checkBlocks(t, blockSources(t, format+" truncated", data[:len(data)-3], isPcap, n-1, io.ErrUnexpectedEOF))
	}
	pkts := testPackets(t)
	checkBlocks(t, []blockCase{{
		name: "slice", open: func(*testing.T) PacketSource { return NewSlice(pkts) },
		lim: tapeLimit{packets: len(pkts) + 1}, end: io.EOF, packets: len(pkts),
	}})
}

// TestLoopBlockRewound: a packet timed before its predecessor fails the
// read at that packet, after the packets before it, and the loop goes on
// with the ones after it — wherever the block boundaries fall.
func TestLoopBlockRewound(t *testing.T) {
	var pkts []packet.Packet
	for i, tm := range []float64{0, 1, 2, 1.5, 3, 4, 4, 3.5, 3.9, 5} {
		pkts = append(pkts, packet.Packet{Time: tm, Size: 40 + i})
	}
	checkBlocks(t, []blockCase{{
		name: "loop, rewound",
		open: func(t *testing.T) PacketSource {
			l, err := NewLoop(func() (PacketSource, error) { return NewSlice(pkts), nil }, 0)
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
		lim: tapeLimit{packets: 5 * len(pkts)},
	}})
}

// TestNextBlockAfterClose: a Close mid-stream fails the next read of every
// source with ErrClosedSource, packets buffered or decoded ahead
// notwithstanding, and what was read before it is the stream's prefix.
func TestNextBlockAfterClose(t *testing.T) {
	const before = 300
	var cases []blockCase
	for _, isPcap := range []bool{false, true} {
		data, n := fewBlocks(t, isPcap)
		cases = append(cases, blockSources(t, map[bool]string{false: "native", true: "pcap"}[isPcap], data, isPcap, n, io.EOF)...)
	}
	pkts := testPackets(t)
	cases = append(cases, blockCase{name: "slice", open: func(*testing.T) PacketSource { return NewSlice(pkts) }})
	for _, c := range cases {
		src := c.open(t)
		want := blockTape(t, src, 1, tapeLimit{packets: before})
		src.Close()
		for _, size := range append([]int{1}, blockSizes...) {
			src := c.open(t)
			got := blockTape(t, src, size, tapeLimit{packets: before})
			label := fmt.Sprintf("%s, blocks of %d", c.name, size)
			sameTape(t, label, got, want)
			if err := src.Close(); err != nil {
				t.Fatalf("%s: Close: %v", label, err)
			}
			for _, size := range []int{1, 4} {
				if n, err := src.NextBlock(make([]packet.Packet, size)); n != 0 || !errors.Is(err, ErrClosedSource) {
					t.Errorf("%s: NextBlock(%d) after Close = %d, %v, want 0, ErrClosedSource", label, size, n, err)
				}
			}
		}
	}
}

// TestCountedCountsBlocks: Counted counts what it returned, whatever the
// block length, and nothing for a failed read.
func TestCountedCountsBlocks(t *testing.T) {
	pkts := testPackets(t)
	src := &Counted{PacketSource: NewSlice(pkts)}
	var p packet.Packet
	if err := next(src, &p); err != nil {
		t.Fatal(err)
	}
	buf := make([]packet.Packet, 7)
	read := 1
	for {
		n, err := src.NextBlock(buf)
		read += n
		if err != nil {
			break
		}
	}
	if got := src.Packets.Load(); got != int64(read) || read != len(pkts) {
		t.Fatalf("counted %d packets, read %d of %d", got, read, len(pkts))
	}
}

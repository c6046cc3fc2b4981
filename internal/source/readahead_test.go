package source

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/layers"
	"flowrank/internal/packet"
	"flowrank/internal/pcap"
)

// Decoding ahead of the reader is Open's doing alone, for capture files
// worth it, and ends with the source's Close; a native trace is read
// synchronously at any size. These tests pin who owns a goroutine and when
// it is gone. They count goroutines exactly, without polling: Close
// returns only once the decode-ahead goroutine has exited, and nothing
// else in this package's tests leaves one running.

// bufSize is the trace readers' buffer (internal/packet, internal/pcap).
const bufSize = 1 << 18

// aheadGoroutines is how many goroutines Open at threshold 0 runs for a
// trace: one decoding a capture ahead, none for a native trace.
func aheadGoroutines(isPcap bool) int {
	if isPcap {
		return 1
	}
	return 0
}

// ownGoroutines counts the other goroutines running this module's code:
// one has a frame in it. Goroutines of the testing package and the
// runtime — an earlier test's runner still on its way out — come and go
// on their own schedule, so a plain runtime.NumGoroutine difference can
// read -1 on a loaded machine; none of them runs a flowrank/ function.
//
// A goroutine's last act (the decode-ahead's close of its done channel)
// wakes the goroutine that waits for it while its own frames are still on
// the stack. With a second P idle, the waiter can run and count it before
// it is gone; a test that counts right after a Close therefore runs on one
// P (oneP), where the woken waiter queues behind the exiting goroutine.
func ownGoroutines() int {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	own := 0
	// The caller's own trace comes first; the traces are blank-line separated.
	for _, g := range bytes.Split(buf[:n], []byte("\n\n"))[1:] {
		if bytes.Contains(g, []byte("\nflowrank/")) {
			own++
		}
	}
	return own
}

// oneP runs the rest of the test with GOMAXPROCS 1 (see ownGoroutines).
func oneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// manyBlocks encodes enough copies of the test packets to fill the
// readers' buffer a dozen times in either format, and a capture of more
// than twice the packets a decode-ahead holds (four batches, and the
// undecoded rest of its buffer): halfway through, a decode-ahead goroutine
// cannot have met the end of the file yet. The capture's frames are cut to
// 64 bytes on the wire, so that it still stays below Open's threshold.
func manyBlocks(t *testing.T, isPcap bool) (data []byte, packets int) {
	t.Helper()
	pkts := testPackets(t)
	encode, per, atLeast := encodeNative, 15, 0
	if isPcap {
		const minRecord = 16 + 42 // record header, Ethernet/IPv4/UDP headers
		encode, per = encodePcap, minRecord
		atLeast = 2 * ((aheadDepth+1)*batchPackets + bufSize/minRecord)
	}
	var trace []packet.Packet
	for len(trace)*per < 12*bufSize || len(trace) <= atLeast {
		trace = append(trace, pkts...)
	}
	for i := range trace {
		trace[i].Time = float64(i) * 1e-3
		if isPcap {
			trace[i].Size = 64
		}
	}
	data = encode(t, trace)
	if len(data) < 12*bufSize || len(data) >= readAheadMin {
		t.Fatalf("%d-byte trace, want at least twelve buffers and less than Open's threshold", len(data))
	}
	return data, len(trace)
}

// TestOnlyOpenReadsAhead: a source built over a bare io.Reader decodes a
// trace of several buffers without ever starting a goroutine, and so does
// Open below its size threshold; Open above it (here: at threshold 0) runs
// exactly one for a capture, gone when Close returns, and none for a
// native trace.
func TestOnlyOpenReadsAhead(t *testing.T) {
	oneP(t)
	for _, isPcap := range []bool{false, true} {
		data, packets := manyBlocks(t, isPcap)
		path := filepath.Join(t.TempDir(), "trace")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			open func() (PacketSource, error)
			want int // goroutines running while the source is being read
		}{
			{"bare reader", func() (PacketSource, error) {
				if isPcap {
					return NewPcapSource(bytes.NewReader(data))
				}
				return NewTraceSource(bytes.NewReader(data))
			}, 0},
			{"Open, small file", func() (PacketSource, error) { return Open(path, isPcap) }, 0},
			{"Open, threshold 0", func() (PacketSource, error) { return open(path, isPcap, 0) }, aheadGoroutines(isPcap)},
		} {
			src, err := tc.open()
			if err != nil {
				t.Fatalf("pcap=%v %s: %v", isPcap, tc.name, err)
			}
			var p packet.Packet
			for i := 0; i < packets/2; i++ { // mid-stream
				if err := src.Next(&p); err != nil {
					t.Fatalf("pcap=%v %s: packet %d: %v", isPcap, tc.name, i, err)
				}
			}
			if got := ownGoroutines(); got != tc.want {
				t.Errorf("pcap=%v %s: %d goroutines started, want %d", isPcap, tc.name, got, tc.want)
			}
			if err := src.Close(); err != nil {
				t.Errorf("pcap=%v %s: Close: %v", isPcap, tc.name, err)
			}
			if got := ownGoroutines(); got != 0 {
				t.Errorf("pcap=%v %s: %d goroutines left after Close", isPcap, tc.name, got)
			}
			if err := src.Next(&p); !errors.Is(err, ErrClosedSource) {
				t.Errorf("pcap=%v %s: Next after Close = %v, want ErrClosedSource", isPcap, tc.name, err)
			}
		}
	}
}

// TestReadAheadMatchesSynchronous: through Open at threshold 0 — a capture
// decoded ahead by its one goroutine, a native trace read synchronously by
// none — both formats yield the packets the synchronous sources yield.
func TestReadAheadMatchesSynchronous(t *testing.T) {
	oneP(t)
	for _, isPcap := range []bool{false, true} {
		data, packets := manyBlocks(t, isPcap)
		path := filepath.Join(t.TempDir(), "trace")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ahead, err := open(path, isPcap, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ownGoroutines(), aheadGoroutines(isPcap); got != want {
			t.Errorf("pcap=%v: %d goroutines at threshold 0, want %d", isPcap, got, want)
		}
		plain, err := Open(path, isPcap)
		if err != nil {
			t.Fatal(err)
		}
		got, want := drain(t, ahead), drain(t, plain)
		ahead.Close()
		plain.Close()
		if len(got) != packets || len(want) != packets {
			t.Fatalf("pcap=%v: %d packets reading ahead, %d synchronously, want %d", isPcap, len(got), len(want), packets)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pcap=%v: packet %d: %+v reading ahead, %+v synchronously", isPcap, i, got[i], want[i])
			}
		}
	}
}

// countedSource counts the Close calls a Loop makes on one inner source.
type countedSource struct {
	PacketSource
	closes *int
}

func (c countedSource) Close() error {
	*c.closes++
	return c.PacketSource.Close()
}

// TestLoopOverReadAheadFile: 300 cycles of a Loop over a file opened at
// threshold 0 open 300 files, in either format, and 300 decode-ahead
// goroutines for a capture, none for a native trace; each source is closed
// once, and when the loop is closed no goroutine and no descriptor is
// left, and the live heap is back within loopHeapSlack of where it
// started: a cycle's buffers (the 256 KiB reader buffer, and a capture's
// 768 KiB of batches) do not accumulate.
func TestLoopOverReadAheadFile(t *testing.T) {
	oneP(t)
	const loopHeapSlack = 1 << 20
	pkts := testPackets(t)[:50]
	for _, isPcap := range []bool{false, true} {
		encode := encodeNative
		if isPcap {
			encode = encodePcap
		}
		path := filepath.Join(t.TempDir(), "trace")
		if err := os.WriteFile(path, encode(t, pkts), 0o644); err != nil {
			t.Fatal(err)
		}
		fds := openDescriptors(t)
		heap := liveHeap()
		var closes []*int
		loop, err := NewLoop(func() (PacketSource, error) {
			src, err := open(path, isPcap, 0)
			if err != nil {
				return nil, err
			}
			n := new(int)
			closes = append(closes, n)
			return countedSource{src, n}, nil
		}, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		const cycles = 300
		var p packet.Packet
		for i := 0; i < cycles*len(pkts)+1; i++ { // the +1 opens cycle 301
			if err := loop.Next(&p); err != nil {
				t.Fatalf("pcap=%v: packet %d: %v", isPcap, i, err)
			}
			// Mid-cycle; a capture's goroutine may have met the end already.
			if i%len(pkts) == len(pkts)/2 {
				if got, most := ownGoroutines(), aheadGoroutines(isPcap); got > most {
					t.Fatalf("pcap=%v: %d goroutines in cycle %d, want at most %d", isPcap, got, i/len(pkts), most)
				}
			}
		}
		if err := loop.Close(); err != nil {
			t.Fatal(err)
		}
		if len(closes) != cycles+1 {
			t.Fatalf("pcap=%v: %d sources opened, want %d", isPcap, len(closes), cycles+1)
		}
		for i, n := range closes {
			if *n != 1 {
				t.Fatalf("pcap=%v: source %d closed %d times, want once", isPcap, i, *n)
			}
		}
		if got := ownGoroutines(); got != 0 {
			t.Errorf("pcap=%v: %d goroutines left after %d cycles", isPcap, got, cycles)
		}
		if got := openDescriptors(t); fds >= 0 && got != fds {
			t.Errorf("pcap=%v: %d descriptors open after %d cycles, %d before", isPcap, got, cycles, fds)
		}
		closes = nil
		if got := liveHeap(); got > heap+loopHeapSlack {
			t.Errorf("pcap=%v: live heap %d B after %d cycles, %d B before: more than %d B kept", isPcap, got, cycles, heap, loopHeapSlack)
		}
	}
}

// liveHeap is the heap in use right after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// openDescriptors counts this process's open file descriptors, or returns
// -1 where /proc does not say.
func openDescriptors(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(entries) - 1 // ReadDir's own
}

// TestPcapSourceCountsFragments: every frame of a fragmented datagram is
// one packet of its flow. The fragments after the first carry payload
// where a TCP or UDP header would be — bytes that used to be read as ports,
// or to fail the frame as malformed and drop it — and are keyed by
// addresses and protocol alone.
func TestPcapSourceCountsFragments(t *testing.T) {
	key := flow.Key{Src: flow.Addr{10, 0, 0, 1}, Dst: flow.Addr{10, 0, 0, 2}, SrcPort: 4000, DstPort: 53, Proto: flow.ProtoUDP}
	portless := key
	portless.SrcPort, portless.DstPort = 0, 0
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	const train = 5 // fragments per datagram
	frames := 0
	for d := 0; d < 20; d++ {
		for f := 0; f < train; f++ {
			frame, err := layers.Frame(nil, key, 1472, 0)
			if err != nil {
				t.Fatal(err)
			}
			ip := frame[layers.EthernetHeaderLen:]
			fragOff := uint16(f * 185) // 1480-byte fragments, in 8-byte units
			if f < train-1 {
				fragOff |= 1 << 13 // more fragments
			}
			binary.BigEndian.PutUint16(ip[6:8], fragOff)
			if f > 0 { // payload, not a UDP header: zeros and a text
				l4 := ip[layers.IPv4MinHeaderLen:]
				for i := range l4 {
					l4[i] = 0
				}
				if d%2 == 1 {
					copy(l4, "gab payload bytes")
				}
			}
			binary.BigEndian.PutUint16(ip[10:12], 0)
			binary.BigEndian.PutUint16(ip[10:12], layers.Checksum(ip[:layers.IPv4MinHeaderLen]))
			if err := w.Write(pcap.Packet{Time: float64(frames) * 1e-3, Data: frame}); err != nil {
				t.Fatal(err)
			}
			frames++
		}
	}
	src, err := NewPcapSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[flow.Key]int{}
	for _, p := range drain(t, src) {
		counts[p.Key]++
	}
	if got := counts[key] + counts[portless]; got != frames {
		t.Errorf("%d packets out of %d frames written (per key: %v)", got, frames, counts)
	}
	if counts[key] != frames/train || counts[portless] != frames-frames/train || len(counts) != 2 {
		t.Errorf("per key %v, want %d first fragments under %v and %d later ones under %v",
			counts, frames/train, key, frames-frames/train, portless)
	}
}

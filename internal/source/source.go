// Package source unifies packet ingestion behind one interface: a
// PacketSource yields time-ordered packets a block at a time (NextBlock),
// whether they come from a native flowrank trace, a pcap capture, an
// in-memory slice, or (behind the "live" build tag) a live network
// interface. The batch monitor (cmd/flowtop) and the long-running daemon
// (cmd/flowrankd) share this path, so a trace replayed through the daemon
// is byte-for-byte the stream the batch tool would have measured.
//
// The block is the unit from source to engine: the pipeline asks for
// packet.BlockLen packets at a time, counts them and feeds them to the
// engine in one call, so the per-read work of every layer — an interface
// call, a closed check, a Loop's cycle bookkeeping — is paid per block,
// not per packet. NextBlock returns n >= 1 packets with a
// nil error, or 0 with the error, never both; it returns what is already
// at hand and never waits for more than the first packet. Sources whose
// every read waits (Paced, the live capture) return one packet per call.
// NextBlock is the only read: a caller that wants one packet at a time
// asks for a block of one. A source's first error is its last: every later
// read returns it again (see PacketSource).
//
// The two trace sources decode records in place out of a 256 KiB
// bufio.Reader (internal/packet's and internal/pcap's ReadBlock), so a
// read costs no allocation and no system call per packet: NextBlock
// decodes, in one loop, every whole record already buffered, and leaves a
// record that straddles the buffer's end, or a malformed one, to the
// record-at-a-time path of the next call. The buffering is invisible
// through PacketSource: a read copies what it keeps out of the buffer (a
// pcap frame is reduced to its flow key, layers.FlowKey, while its bytes
// are still there: they are valid until the following read), a read after
// Close fails with ErrClosedSource even though records remain buffered,
// and a stream that arrives slowly (a pipe, a socket) yields each packet
// once its last byte is in — the readers never wait to fill a buffer. A
// pcap capture must have the Ethernet link type, the only framing
// internal/layers parses; anything else is refused at open with
// ErrUnsupportedLinkType.
//
// Who reads ahead: Open, and nothing else, for a pcap capture in a regular
// file of 16 MiB or more, on one goroutine (pcapAhead's) that runs the
// whole synchronous PcapSource — its reader, the record parse, the flow
// key — and keeps up to three batches of 4096 keyed packets decoded while
// the caller's reads work through the current one (768 KiB per open
// source). NextBlock copies them out, so a frame's headers are parsed on
// the core whose read(2) just wrote them, not out of the other core's
// cache. A native trace is read synchronously at any size: decoding it
// ahead cost more CPU than it saved, and reading its bytes ahead hid only
// its read(2) calls, a few per cent of wall time, at the price of a second
// buffered reader (ROADMAP, "Decided against"). Smaller captures, pipes,
// and every source built from a bare io.Reader (NewTraceSource,
// NewPcapSource) are read synchronously too and own no goroutine. Decoding
// ahead, the reader sees what the synchronous source shows: every packet
// before an error, then that error on every read. Close closes the file
// first, so a blocked read returns, and does not return before the
// goroutine has exited: a closed source leaves nothing behind, and Loop,
// which opens its source once per cycle, leaves nothing behind per cycle.
//
// Replay decorators compose over any source: Pace throttles a trace to
// line rate (or a speed multiple of it) using the packet timestamps, and
// Loop replays a reopenable trace indefinitely with monotonically shifted
// timestamps — the harness that turns a finite capture into a long-running
// daemon workload; it shifts and checks a whole block at once. Loop adds
// no synchronisation to a packet: its lock is taken when a cycle's source
// is opened or retired and by Close, and a Close from another goroutine
// reaches a reader mid-cycle through the inner source it closes.
package source

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sync/atomic"

	"flowrank/internal/layers"
	"flowrank/internal/packet"
	"flowrank/internal/pcap"
)

// PacketSource is the ingestion interface every consumer reads from.
//
// NextBlock is the only read. It fills buf, which must not be empty, with the
// next packets and returns how many: n >= 1 with a nil error, or 0 with
// the error — io.EOF at a clean end of stream, another error on
// corruption — never packets and an error together. It returns at most
// len(buf) packets and never waits for more than the first: what a pipe
// or a live capture has not delivered yet is left for the next call, so a
// slow stream still yields each packet as soon as its last byte arrives;
// a block of one is a packet-at-a-time read. Packets arrive in
// non-decreasing time order, the order the stream engine requires. A
// source is not safe for concurrent reads.
//
// The first error is final: every later NextBlock returns 0 and that same
// error — io.EOF again after a clean end, the same corruption error after
// a truncated or malformed stream — or, once the source is closed, an
// error matching ErrClosedSource. Nothing past the error is read.
//
// Close releases the source. Closing a source blocked in a read (from
// another goroutine) unblocks it with an error — the graceful-shutdown
// path of a daemon draining a live capture.
type PacketSource interface {
	NextBlock(buf []packet.Packet) (n int, err error)
	Close() error
}

// ErrClosedSource is wrapped by a read of a source that was Closed. Callers
// draining a source from another goroutine use errors.Is against it (or
// os.ErrClosed, which file-backed sources surface) to tell a shutdown
// from trace corruption.
var ErrClosedSource = errors.New("source: closed")

// Built once so the annotated read methods stay free of fmt.
var (
	errTraceClosed = fmt.Errorf("source: trace read after close: %w", ErrClosedSource)
	errPcapClosed  = fmt.Errorf("source: pcap read after close: %w", ErrClosedSource)
	errSliceClosed = fmt.Errorf("source: slice read after close: %w", ErrClosedSource)
)

// ErrLiveUnsupported is wrapped by NewLive when live capture is not
// available: always in the default hermetic build (no "live" build tag,
// so CI opens no sockets and needs no capture privileges) and on
// non-linux platforms (the implementation is AF_PACKET).
var ErrLiveUnsupported = errors.New("source: live capture unavailable")

// ErrUnsupportedLinkType is wrapped by NewPcapSource (and so by Open) for a
// capture whose link type is not Ethernet: its frames would be parsed at
// the wrong offsets, so the capture is refused rather than mis-keyed.
var ErrUnsupportedLinkType = errors.New("source: unsupported pcap link type (only Ethernet is decoded)")

// TraceSource replays a native flowrank packet trace (packet.Reader
// format) from an io.Reader.
type TraceSource struct {
	r      *packet.Reader
	c      io.Closer
	err    error // the first read error, returned by every later read
	closed atomic.Bool
}

// NewTraceSource validates the trace header and returns a source over r.
// If r is an io.Closer (an *os.File), Close closes it.
func NewTraceSource(r io.Reader) (*TraceSource, error) {
	pr, err := packet.NewReader(r)
	if err != nil {
		return nil, err
	}
	s := &TraceSource{r: pr}
	if c, ok := r.(io.Closer); ok {
		s.c = c
	}
	return s, nil
}

// NextBlock decodes the records already buffered, up to len(buf), into
// buf (packet.Reader.ReadBlock).
//
//flowrank:hotpath
func (s *TraceSource) NextBlock(buf []packet.Packet) (int, error) {
	if s.closed.Load() {
		return 0, errTraceClosed
	}
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.r.ReadBlock(buf)
	s.err = err
	return n, err
}

// Close closes the underlying reader when it is closable.
func (s *TraceSource) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// PcapSource replays a pcap capture, reading each frame's flow key out of
// its Ethernet/IPv4/L4 headers (layers.FlowKey). Frames that have none
// (non-IP, truncated, failing a header check) are skipped, matching what a
// link monitor classifying 5-tuples would do.
type PcapSource struct {
	r      *pcap.Reader
	c      io.Closer
	err    error // the first read error, returned by every later read
	closed atomic.Bool
	// frames is where ReadBlock decodes a block before it is keyed.
	frames [packet.BlockLen]pcap.Packet
}

// NewPcapSource validates the pcap global header and returns a source
// over r. Only Ethernet captures are accepted; any other link type fails
// with ErrUnsupportedLinkType. If r is an io.Closer (an *os.File), Close
// closes it.
func NewPcapSource(r io.Reader) (*PcapSource, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	if lt := pr.Header().LinkType; lt != pcap.LinkTypeEthernet {
		return nil, fmt.Errorf("source: pcap link type %d: %w", lt, ErrUnsupportedLinkType)
	}
	s := &PcapSource{r: pr}
	if c, ok := r.(io.Closer); ok {
		s.c = c
	}
	return s, nil
}

// Close closes the underlying reader when it is closable.
func (s *PcapSource) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// NextBlock fills buf with the next decodable frames: the first wherever
// it lies, then every further one whose record is already buffered whole
// (pcap.Reader.ReadBlock), up to packet.BlockLen frames a call.
//
//flowrank:hotpath
func (s *PcapSource) NextBlock(buf []packet.Packet) (int, error) {
	if s.closed.Load() {
		return 0, errPcapClosed
	}
	if s.err != nil {
		return 0, s.err
	}
	frames := s.frames[:min(len(buf), len(s.frames))]
	for {
		k, err := s.r.ReadBlock(frames)
		if err != nil {
			s.err = err
			return 0, err
		}
		n := 0
		for i := range frames[:k] {
			f := &frames[i]
			key, kerr := layers.FlowKey(f.Data)
			if kerr != nil {
				continue // skip undecodable frames
			}
			p := &buf[n]
			p.Time = f.Time
			p.Key = key
			p.Size = f.OrigLen
			n++
		}
		if n > 0 {
			return n, nil
		}
	}
}

// fill decodes packets into buf until it is full or a read fails: the
// decode-ahead goroutine's work (pcapAhead).
//
//flowrank:hotpath
func (s *PcapSource) fill(buf []packet.Packet) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := s.NextBlock(buf[n:])
		if err != nil {
			return n, err
		}
		n += k
	}
	return n, nil
}

// readAheadMin is the capture file size from which Open decodes ahead.
// Starting the goroutine and faulting in its 768 KiB of batches costs what
// overlapping the decode of some megabytes returns, so a smaller capture
// is read as NewPcapSource reads anything: synchronously. The figure was
// set for a byte read-ahead of 256 KiB blocks (55 blocks broke about even
// in a decode-only loop) and has not been measured again for the
// decode-ahead alone.
const readAheadMin = 16 << 20

// batchPackets is how many decoded packets one hand-off of a pcap
// decode-ahead carries: 128 KiB of packet.Packet. Batches of 512 and 1024
// packets ran at 0.82x and 0.87x its speed, 16384 tied.
const batchPackets = 4096

// aheadDepth is how many batches the decode-ahead goroutine may hold
// decoded beyond the one its consumer is working through. With one in
// flight, waking a parked thread costs about as long as the work between
// two hand-offs, and the consumer waits at every one (ROADMAP, "Decided
// against").
const aheadDepth = 3

// Open opens a trace file as a PacketSource: the native format by
// default, pcap when isPcap is set. A capture in a regular file of
// readAheadMin bytes or more is decoded ahead (see the package comment);
// everything else is read synchronously. The returned source owns the
// file handle and the goroutine: its Close closes the one and ends the
// other.
func Open(path string, isPcap bool) (PacketSource, error) {
	return open(path, isPcap, readAheadMin)
}

// open is Open with the decode-ahead threshold as a parameter, for the
// tests that want the goroutine under a file of a few packets.
func open(path string, isPcap bool, readAheadMin int64) (PacketSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !isPcap {
		src, err := NewTraceSource(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		return src, nil
	}
	src, err := NewPcapSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() && st.Size() >= readAheadMin {
		return newPcapAhead(src), nil
	}
	return src, nil
}

// pcapAhead is what Open returns for a large capture file: a goroutine
// (decode) runs the synchronous source's decoder (fill) and hands over
// batches of packets, which NextBlock copies out a block at a time.
//
// Batches circulate between two queues, each with room for every batch,
// so neither side ever blocks on a send: the consumer parks only on an
// empty ready, the goroutine only on an empty free.
type pcapAhead struct {
	sync   *PcapSource   // the goroutine's
	stop   chan struct{} // closed by Close
	done   chan struct{} // closed when the goroutine has exited
	ready  chan batch    // decoded batches in stream order; closed with done
	free   chan []packet.Packet
	buf    []packet.Packet // buf[i:n] is decoded and unread
	i, n   int
	err    error // the error that ended buf, reported after its packets and on every read after
	closed atomic.Bool
}

// batch is one fill on its way from the goroutine to the consumer: the
// buffer, how many packets the fill decoded into it, and the error that
// ended the fill, if one did.
type batch struct {
	pkts []packet.Packet
	n    int
	err  error
}

func newPcapAhead(src *PcapSource) *pcapAhead {
	s := &pcapAhead{
		sync:  src,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		ready: make(chan batch, aheadDepth+1),
		free:  make(chan []packet.Packet, aheadDepth+1),
		buf:   make([]packet.Packet, batchPackets), // the one more that circulates
	}
	for i := 0; i < aheadDepth; i++ {
		s.free <- make([]packet.Packet, batchPackets)
	}
	go pprof.Do(context.Background(), pprof.Labels("role", "decode-ahead"), func(context.Context) { s.decode() })
	return s
}

// decode is the goroutine: fill a free batch and hand it over, until a
// fill fails or Close says stop.
//
//flowrank:hotpath
func (s *pcapAhead) decode() {
	defer close(s.done)
	defer close(s.ready)
	for {
		var buf []packet.Packet
		select {
		case buf = <-s.free:
		case <-s.stop:
			return
		}
		n, err := s.sync.fill(buf)
		s.ready <- batch{buf, n, err}
		if err != nil {
			return
		}
	}
}

// NextBlock copies the next decoded frames, up to len(buf), out of the
// current batch.
//
//flowrank:hotpath
func (s *pcapAhead) NextBlock(buf []packet.Packet) (int, error) {
	if s.closed.Load() {
		return 0, errPcapClosed
	}
	if s.i == s.n {
		if err := s.refill(); err != nil {
			return 0, err
		}
	}
	n := copy(buf, s.buf[s.i:s.n])
	s.i += n
	return n, nil
}

// refill, called with the current batch read, reports the error that
// ended it, or takes the next batch. A batch without packets carries the
// error that ended the decode, and is the goroutine's last. A Close that
// ends the goroutine fails the read instead: the stream it read past is
// not resumed.
//
//flowrank:hotpath
func (s *pcapAhead) refill() error {
	if s.err != nil {
		return s.err
	}
	b := <-s.ready
	if s.closed.Load() {
		return errPcapClosed
	}
	s.free <- s.buf // never blocks: free has room for every batch
	s.buf, s.i, s.n, s.err = b.pkts, 0, b.n, b.err
	if s.n == 0 {
		return s.err
	}
	return nil
}

// Close closes the file, which ends a read the goroutine is blocked in,
// and returns once the goroutine has exited. A read waiting for a batch
// fails with ErrClosedSource.
func (s *pcapAhead) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.sync.Close()
	close(s.stop)
	<-s.done
	return err
}

// Slice is an in-memory PacketSource over a packet slice — the test and
// embedding harness. The slice is read, never mutated.
type Slice struct {
	pkts   []packet.Packet
	i      int
	closed atomic.Bool
}

// NewSlice returns a source yielding pkts in order. The caller keeps
// ownership of the slice but must not mutate it while reading.
func NewSlice(pkts []packet.Packet) *Slice { return &Slice{pkts: pkts} }

// NextBlock copies the next packets of the slice, up to len(buf), into
// buf.
//
//flowrank:hotpath
func (s *Slice) NextBlock(buf []packet.Packet) (int, error) {
	if s.closed.Load() {
		return 0, errSliceClosed
	}
	if s.i >= len(s.pkts) {
		return 0, io.EOF
	}
	n := copy(buf, s.pkts[s.i:])
	s.i += n
	return n, nil
}

// Close marks the source closed; later reads error.
func (s *Slice) Close() error {
	s.closed.Store(true)
	return nil
}

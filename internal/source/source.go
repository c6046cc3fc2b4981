// Package source unifies packet ingestion behind one interface: a
// PacketSource yields time-ordered packets one at a time, whether they
// come from a native flowrank trace, a pcap capture, an in-memory slice,
// or (behind the "live" build tag) a live network interface. The batch
// monitor (cmd/flowtop) and the long-running daemon (cmd/flowrankd) share
// this path, so a trace replayed through the daemon is byte-for-byte the
// stream the batch tool would have measured.
//
// The two trace sources decode records in place out of the 256 KiB blocks
// of one block reader (internal/blockio, under internal/packet and
// internal/pcap alike), so Next costs no allocation and no system call per
// packet. The buffering is invisible through PacketSource: Next copies what
// it keeps out of the block (a pcap frame is reduced to its flow key,
// layers.FlowKey, while its bytes are still there: they are valid until the
// following Next), Next after Close fails with ErrClosedSource even though
// records remain buffered, and a stream that arrives slowly (a pipe, a
// socket) yields each packet once its last byte is in — the readers never
// wait to fill a block. A pcap capture must have the Ethernet link type,
// the only framing internal/layers parses; anything else is refused at open
// with ErrUnsupportedLinkType.
//
// Who reads ahead: Open, and nothing else. For a regular file of 16 MiB or
// more it puts a blockio reader under the decoder whose goroutine keeps up
// to three blocks read while the caller's Next works through the current
// one (at most 2 MiB of buffers per open source); smaller files, pipes, and
// every source built from a bare io.Reader (NewTraceSource, NewPcapSource)
// are read synchronously and own no goroutine. The goroutine exits by
// itself at the end of the file or at a read error, and Close — which
// closes the file first, so a blocked read returns — does not return
// before it has exited: a closed source leaves nothing behind, and Loop,
// which opens its source once per cycle, leaves nothing behind per cycle.
//
// Replay decorators compose over any source: Pace throttles a trace to
// line rate (or a speed multiple of it) using the packet timestamps, and
// Loop replays a reopenable trace indefinitely with monotonically shifted
// timestamps — the harness that turns a finite capture into a long-running
// daemon workload. Loop adds no synchronisation to a packet: its lock is
// taken when a cycle's source is opened or retired and by Close, and a
// Close from another goroutine reaches a reader mid-cycle through the
// inner source it closes.
package source

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"flowrank/internal/blockio"
	"flowrank/internal/layers"
	"flowrank/internal/packet"
	"flowrank/internal/pcap"
)

// PacketSource is the ingestion interface every consumer reads from.
//
// Next fills *p with the next packet and returns nil, io.EOF at a clean
// end of stream, or another error on corruption. Packets arrive in
// non-decreasing time order, the order the stream engine requires. A
// source is not safe for concurrent Next calls.
//
// Close releases the source. Closing a source blocked in Next (from
// another goroutine) unblocks it with an error — the graceful-shutdown
// path of a daemon draining a live capture.
type PacketSource interface {
	Next(p *packet.Packet) error
	Close() error
}

// ErrClosedSource is wrapped by Next when the source was Closed. Callers
// draining a source from another goroutine use errors.Is against it (or
// os.ErrClosed, which file-backed sources surface) to tell a shutdown
// from trace corruption.
var ErrClosedSource = errors.New("source: closed")

// Built once so the annotated Next methods stay free of fmt.
var (
	errTraceClosed = fmt.Errorf("source: trace read after close: %w", ErrClosedSource)
	errPcapClosed  = fmt.Errorf("source: pcap read after close: %w", ErrClosedSource)
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

// Next fills p with the next trace record.
//
//flowrank:hotpath
func (s *TraceSource) Next(p *packet.Packet) error {
	if s.closed.Load() {
		return errTraceClosed
	}
	return s.r.Read(p)
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
	closed atomic.Bool
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

// Next fills p with the next decodable frame.
//
//flowrank:hotpath
func (s *PcapSource) Next(p *packet.Packet) error {
	if s.closed.Load() {
		return errPcapClosed
	}
	for {
		pk, err := s.r.Next()
		if err != nil {
			return err
		}
		key, kerr := layers.FlowKey(pk.Data)
		if kerr != nil {
			continue // skip undecodable frames
		}
		p.Time = pk.Time
		p.Key = key
		p.Size = pk.OrigLen
		return nil
	}
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

// readAheadMin is the file size from which Open reads ahead. Starting the
// goroutine and faulting in its 2 MiB of buffers costs what overlapping
// some tens of blocks returns (BenchmarkSourceDecode: 55 blocks break about
// even in a decode-only loop), so a file below 64 blocks is read as
// NewTraceSource and NewPcapSource read anything: synchronously.
const readAheadMin = 64 * blockio.BlockSize

// Open opens a trace file as a PacketSource: the native format by
// default, pcap when isPcap is set. A regular file of readAheadMin bytes
// or more is read ahead of the decoder (see the package comment). The
// returned source owns the file handle and the read-ahead: its Close
// closes the one and ends the other.
func Open(path string, isPcap bool) (PacketSource, error) {
	return open(path, isPcap, readAheadMin)
}

// open is Open with the read-ahead threshold as a parameter, for the tests
// that want the goroutine under a file of a few packets.
func open(path string, isPcap bool, readAheadMin int64) (PacketSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var r io.ReadCloser = f
	if st, err := f.Stat(); err == nil && st.Mode().IsRegular() && st.Size() >= readAheadMin {
		r = blockio.NewReadAhead(f)
	}
	var src PacketSource
	if isPcap {
		src, err = NewPcapSource(r)
	} else {
		src, err = NewTraceSource(r)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return src, nil
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

// Next fills p with the next packet of the slice.
func (s *Slice) Next(p *packet.Packet) error {
	if s.closed.Load() {
		return fmt.Errorf("source: slice read after close: %w", ErrClosedSource)
	}
	if s.i >= len(s.pkts) {
		return io.EOF
	}
	*p = s.pkts[s.i]
	s.i++
	return nil
}

// Close marks the source closed; later Next calls error.
func (s *Slice) Close() error {
	s.closed.Store(true)
	return nil
}

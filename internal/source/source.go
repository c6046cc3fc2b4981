// Package source unifies packet ingestion behind one interface: a
// PacketSource yields time-ordered packets one at a time, whether they
// come from a native flowrank trace, a pcap capture, an in-memory slice,
// or (behind the "live" build tag) a live network interface. The batch
// monitor (cmd/flowtop) and the long-running daemon (cmd/flowrankd) share
// this path, so a trace replayed through the daemon is byte-for-byte the
// stream the batch tool would have measured.
//
// The two trace sources read through block-buffered readers
// (internal/packet: 64 KiB, internal/pcap: 256 KiB) that decode records in
// place, so Next costs no allocation and no system call per packet. The
// buffering is invisible through PacketSource: Next copies what it keeps
// out of the block (a pcap frame's bytes are parsed to a flow key before
// the following read overwrites them), Next after Close fails with
// ErrClosedSource even though decoded-ahead records remain buffered, and a
// stream that arrives slowly (a pipe, a socket) yields each packet once its
// last byte is in — the readers never wait to fill a block. A pcap capture
// must have the Ethernet link type, the only framing internal/layers
// parses; anything else is refused at open with ErrUnsupportedLinkType.
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

// PcapSource replays a pcap capture, decoding each frame's
// Ethernet/IPv4/L4 headers into a flow key. Frames the parser cannot
// decode (non-IP, truncated) are skipped, matching what a link monitor
// classifying 5-tuples would do.
type PcapSource struct {
	r      *pcap.Reader
	parser layers.Parser
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
		key, _, perr := s.parser.Parse(pk.Data)
		if perr != nil {
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

// Open opens a trace file as a PacketSource: the native format by
// default, pcap when isPcap is set. The returned source owns the file
// handle and closes it on Close.
func Open(path string, isPcap bool) (PacketSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var src PacketSource
	if isPcap {
		src, err = NewPcapSource(f)
	} else {
		src, err = NewTraceSource(f)
	}
	if err != nil {
		f.Close()
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

// Package pcap reads and writes the classic libpcap capture format
// (the 24-byte global header with magic 0xa1b2c3d4), the lingua franca of
// packet tooling. The reader accepts both byte orders and both microsecond
// and nanosecond timestamp magics; the writer emits little-endian
// microsecond captures with the Ethernet link type.
//
// The reader decodes records in place out of a 256 KiB bufio.Reader, as
// the native trace decoder does: a record's header and body come from one
// contiguous slice of the buffer, so reading costs one Read on the
// underlying stream per buffer refill and no copy or allocation per
// record. ReadBlock decodes every whole record already buffered in one
// loop, with one Peek and one Discard; Next decodes one. Three
// consequences callers rely on:
//
//   - Packet.Data aliases the buffer. It is valid until the following
//     Next or ReadBlock call and must be copied to be kept longer.
//   - The reader buffers: it may have consumed more of the underlying
//     stream than the records it has returned.
//   - It never waits for more than the record it is about to return, so a
//     capture streamed over a pipe or socket yields each record as soon as
//     its last byte arrives. A record larger than the buffer (a capture
//     with a raised snap length) is copied into a buffer of its own.
//
// The reader starts no goroutine and has nothing to close. internal/source's
// Open runs it, and the flow key, on a decode-ahead goroutine of its own
// for a large capture file, and hands the consumer decoded packets.
//
// The reader reports the capture's link type in Header and interprets
// none: whoever parses Data must check it (internal/source accepts
// Ethernet only).
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Link types.
const (
	LinkTypeEthernet = 1
)

const (
	magicMicroseconds = 0xa1b2c3d4
	magicNanoseconds  = 0xa1b23c4d
	versionMajor      = 2
	versionMinor      = 4
	globalHeaderLen   = 24
	packetHeaderLen   = 16
	// maxRecordLen caps a record's claimed captured length. A corrupt
	// header (or one whose snap length is itself corrupt) can claim a
	// multi-gigabyte packet; that must fail parsing, not allocate the
	// claim. Real captures snap at 64 KiB — 64 MiB is far beyond any
	// valid record.
	maxRecordLen = 1 << 26
	// blockSize is the reader's buffer: what one underlying Read fetches,
	// and the longest record decoded in place.
	blockSize = 1 << 18
)

// ErrNotPcap is returned when the stream does not begin with a known pcap
// magic number.
var ErrNotPcap = errors.New("pcap: unrecognized magic number")

// Header describes a capture file.
type Header struct {
	SnapLen  uint32
	LinkType uint32
	// Nanos is true when per-packet timestamps carry nanoseconds.
	Nanos bool
}

// Packet is one captured record.
type Packet struct {
	// Time is seconds since the capture epoch.
	Time float64
	// Data is the captured bytes (up to SnapLen). From a Reader it points
	// into the reader's buffer: valid until the following read.
	Data []byte
	// OrigLen is the original wire length.
	OrigLen int
}

// Writer emits a pcap stream.
type Writer struct {
	w       io.Writer
	snapLen uint32
	hdr     [packetHeaderLen]byte
}

// NewWriter writes the global header for an Ethernet capture.
func NewWriter(w io.Writer, snapLen uint32) (*Writer, error) {
	if snapLen == 0 {
		snapLen = 65535
	}
	var hdr [globalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], versionMinor)
	// thiszone (8:12) and sigfigs (12:16) stay zero.
	binary.LittleEndian.PutUint32(hdr[16:], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return &Writer{w: w, snapLen: snapLen}, nil
}

// Write emits one packet record, truncating data at the snap length.
func (w *Writer) Write(p Packet) error {
	data := p.Data
	if uint32(len(data)) > w.snapLen {
		data = data[:w.snapLen]
	}
	origLen := p.OrigLen
	if origLen < len(p.Data) {
		origLen = len(p.Data)
	}
	// The record header carries unsigned 32-bit seconds: timestamps
	// outside [0, 2^32) are an error, not an implementation-defined
	// float conversion silently corrupting the capture.
	if !(p.Time >= 0 && p.Time < 1<<32) {
		return fmt.Errorf("pcap: timestamp %g outside the representable range [0, 2^32)", p.Time)
	}
	sec := uint64(p.Time)
	// Round the fraction to the nearest microsecond (truncation loses up
	// to 1 µs: 0.3 s would encode as 299999 µs). Rounding can land exactly
	// on 1_000_000 — an invalid pcap timestamp — so carry into seconds.
	usec := uint32(math.Round((p.Time - float64(sec)) * 1e6))
	if usec >= 1e6 {
		sec++
		usec -= 1e6
	}
	if sec > math.MaxUint32 {
		return fmt.Errorf("pcap: timestamp %g rounds past the representable range [0, 2^32)", p.Time)
	}
	binary.LittleEndian.PutUint32(w.hdr[0:], uint32(sec))
	binary.LittleEndian.PutUint32(w.hdr[4:], usec)
	binary.LittleEndian.PutUint32(w.hdr[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(w.hdr[12:], uint32(origLen))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing packet header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: writing packet data: %w", err)
	}
	return nil
}

// Reader parses a pcap stream out of one buffer: records are decoded in
// place, so a Packet's Data aliases the buffer and reading costs one
// underlying Read per refill, not two per record.
type Reader struct {
	br     *bufio.Reader
	order  binary.ByteOrder
	header Header
	// big holds the one record too large for the buffer; it grows on demand.
	big []byte
}

// NewReader parses the global header, auto-detecting byte order and
// timestamp resolution. The reader buffers: it may consume more of r than
// the records it has returned.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, blockSize)
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	var order binary.ByteOrder
	var nanos bool
	switch {
	case magicLE == magicMicroseconds:
		order = binary.LittleEndian
	case magicLE == magicNanoseconds:
		order, nanos = binary.LittleEndian, true
	case magicBE == magicMicroseconds:
		order = binary.BigEndian
	case magicBE == magicNanoseconds:
		order, nanos = binary.BigEndian, true
	default:
		return nil, ErrNotPcap
	}
	return &Reader{
		br:    br,
		order: order,
		header: Header{
			SnapLen:  order.Uint32(hdr[16:20]),
			LinkType: order.Uint32(hdr[20:24]),
			Nanos:    nanos,
		},
	}, nil
}

// Header returns the capture description.
func (r *Reader) Header() Header { return r.header }

// ReadBlock decodes up to len(frames) records into frames, which must not
// be empty, and returns how many: n >= 1 with a nil error, or 0 with the
// error — io.EOF at a clean end of capture. It decodes, in one loop, every
// whole and well-formed record already buffered, with one Peek and one
// Discard, and reads the stream through Next only for a first record that
// is not there (one that straddles the end of the buffered bytes, one
// larger than the buffer, a malformed one, or an empty buffer); so it
// never waits for a byte beyond the first record it returns. Every
// frame's Data is valid until the following read.
//
//flowrank:hotpath
func (r *Reader) ReadBlock(frames []Packet) (int, error) {
	b, _ := r.br.Peek(r.br.Buffered()) // buffered: never reads
	off, i := 0, 0
	for ; i < len(frames); i++ {
		n := r.decodeRecord(b[off:], &frames[i])
		if n == 0 {
			break
		}
		off += n
	}
	if i == 0 {
		p, err := r.Next()
		if err != nil {
			return 0, err
		}
		frames[0] = p
		return 1, nil
	}
	_, _ = r.br.Discard(off) // cannot fail: the records are buffered
	return i, nil
}

// Next returns the next packet, or io.EOF at a clean end of capture. The
// returned Data points into the reader's buffer and is only valid until
// the following read. Next waits for no byte beyond the record it
// returns, so a capture arriving over a pipe yields each record as its
// last byte arrives.
//
//flowrank:hotpath
func (r *Reader) Next() (Packet, error) {
	hdr, err := r.br.Peek(packetHeaderLen)
	if err != nil {
		return Packet{}, headerError(len(hdr), err)
	}
	inclLen := r.order.Uint32(hdr[8:12])
	if r.tooLong(inclLen) {
		return Packet{}, r.lengthError(inclLen)
	}
	recLen := packetHeaderLen + int(inclLen)
	if recLen > blockSize {
		// readBig refills the buffer hdr aliases: read the header first.
		p := Packet{Time: r.time(hdr), OrigLen: int(r.order.Uint32(hdr[12:16]))}
		if p.Data, err = r.readBig(int(inclLen)); err != nil {
			return Packet{}, err
		}
		return p, nil
	}
	rec, err := r.br.Peek(recLen)
	if err != nil {
		return Packet{}, dataError(err)
	}
	var p Packet
	r.decodeRecord(rec, &p)
	_, _ = r.br.Discard(recLen) // cannot fail: recLen bytes are buffered
	return p, nil
}

// decodeRecord decodes the record at the start of b into *p, its Data
// aliasing b, and returns the record's length; 0, and *p untouched, when
// b does not hold a whole record of a valid length.
//
//flowrank:hotpath
func (r *Reader) decodeRecord(b []byte, p *Packet) int {
	if len(b) < packetHeaderLen {
		return 0
	}
	inclLen := r.order.Uint32(b[8:12])
	recLen := packetHeaderLen + int(inclLen)
	if r.tooLong(inclLen) || recLen > len(b) {
		return 0
	}
	p.Time = r.time(b)
	p.Data = b[packetHeaderLen:recLen]
	p.OrigLen = int(r.order.Uint32(b[12:16]))
	return recLen
}

// tooLong reports whether a record's captured length breaks the snap
// length or the sanity cap.
func (r *Reader) tooLong(inclLen uint32) bool {
	return inclLen > r.header.SnapLen && r.header.SnapLen > 0 || inclLen > maxRecordLen
}

// time decodes a record header's timestamp into seconds.
func (r *Reader) time(hdr []byte) float64 {
	t := float64(r.order.Uint32(hdr[0:4]))
	frac := r.order.Uint32(hdr[4:8])
	if r.header.Nanos {
		return t + float64(frac)/1e9
	}
	return t + float64(frac)/1e6
}

// readBig copies a record body that cannot fit the buffer (a capture whose
// snap length was raised past it) into a buffer of its own.
func (r *Reader) readBig(n int) ([]byte, error) {
	_, _ = r.br.Discard(packetHeaderLen) // cannot fail: the header was just peeked
	if cap(r.big) < n {
		r.big = make([]byte, n)
	}
	r.big = r.big[:n]
	if _, err := io.ReadFull(r.br, r.big); err != nil {
		return nil, dataError(err)
	}
	return r.big, nil
}

// headerError classifies a failed record-header read: a stream that ends
// exactly on a record boundary is the clean io.EOF, one that ends inside
// the header is truncated.
func headerError(got int, err error) error {
	if errors.Is(err, io.EOF) {
		if got == 0 {
			return io.EOF
		}
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("pcap: reading packet header: %w", err)
}

// dataError wraps a failed record-body read; the stream ending there is
// always a truncation.
func dataError(err error) error {
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("pcap: reading packet data: %w", err)
}

func (r *Reader) lengthError(inclLen uint32) error {
	if inclLen > r.header.SnapLen && r.header.SnapLen > 0 {
		return fmt.Errorf("pcap: record length %d exceeds snap length %d", inclLen, r.header.SnapLen)
	}
	return fmt.Errorf("pcap: record length %d exceeds the %d-byte sanity cap", inclLen, uint32(maxRecordLen))
}

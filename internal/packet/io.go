package packet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"flowrank/internal/flow"
)

// packetMagic identifies the trace format.
var packetMagic = [5]byte{'F', 'P', 'K', 'T', 1}

// ErrBadMagic is returned when a trace stream does not start with the
// expected format marker.
var ErrBadMagic = errors.New("packet: not a flowrank trace (bad magic)")

const nanosPerSecond = 1e9

func secondsToNanos(s float64) int64 { return int64(math.Round(s * nanosPerSecond)) }

func nanosToSeconds(n int64) float64 { return float64(n) / nanosPerSecond }

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendKey(buf []byte, k flow.Key) []byte {
	buf = append(buf, k.Src[:]...)
	buf = append(buf, k.Dst[:]...)
	buf = binary.BigEndian.AppendUint16(buf, k.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, k.DstPort)
	return append(buf, byte(k.Proto))
}

// keyLen is the encoded size of a flow.Key.
const keyLen = 13

func readKey(r io.Reader) (flow.Key, error) {
	var raw [keyLen]byte
	if _, err := io.ReadFull(r, raw[:]); err != nil {
		return flow.Key{}, err
	}
	var k flow.Key
	decodeKey(&k, raw[:])
	return k, nil
}

// decodeKey decodes the keyLen bytes appendKey wrote into *k, in place:
// the 13 bytes on disk are the first 13 of the 16-byte in-memory key, in
// the same order, and a key built in a local and then copied out would be
// reloaded whole right after these narrower stores.
func decodeKey(k *flow.Key, raw []byte) {
	_ = raw[keyLen-1]
	k.Src = flow.Addr(raw[0:4])
	k.Dst = flow.Addr(raw[4:8])
	k.SrcPort = binary.BigEndian.Uint16(raw[8:10])
	k.DstPort = binary.BigEndian.Uint16(raw[10:12])
	k.Proto = flow.Proto(raw[12])
}

// Writer encodes a packet trace. Call Flush before closing the underlying
// writer.
type Writer struct {
	w        *bufio.Writer
	lastNano int64
	buf      []byte
	started  bool
}

// NewWriter creates a packet-trace writer and emits the format header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(packetMagic[:]); err != nil {
		return nil, fmt.Errorf("packet: writing header: %w", err)
	}
	return &Writer{w: bw, buf: make([]byte, 0, 32)}, nil
}

// Write appends one packet to the trace.
func (w *Writer) Write(p Packet) error {
	nano := secondsToNanos(p.Time)
	delta := nano - w.lastNano
	w.lastNano = nano
	w.started = true
	w.buf = w.buf[:0]
	w.buf = binary.AppendUvarint(w.buf, zigzag(delta))
	w.buf = appendKey(w.buf, p.Key)
	w.buf = binary.AppendUvarint(w.buf, uint64(p.Size))
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("packet: writing record: %w", err)
	}
	return nil
}

// Flush drains buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// readerSize is the Reader's buffer, what one underlying Read fetches.
const readerSize = 1 << 18

// Reader decodes a packet trace written by Writer, in place out of a
// 256 KiB bufio.Reader. It starts no goroutine and has nothing to close.
type Reader struct {
	r        *bufio.Reader
	lastNano int64
}

// NewReader validates the header and returns a reader positioned at the
// first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, readerSize)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("packet: reading header: %w", err)
	}
	if hdr != packetMagic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// ReadBlock decodes up to len(buf) records into buf, which must not be
// empty, and returns how many: n >= 1 with a nil error, or 0 with the
// error — io.EOF at the end of the trace. It is the reader's one decode: a
// block of one packet reads one record. It decodes, in one loop, every
// whole record already buffered, in place — from the buffer straight into
// buf, with one Peek and one Discard and no Packet built and copied on the
// way — and reads the stream only for a first record that is not there (a
// straddling or malformed record, or an empty buffer), through the
// byte-wise path; so it never waits for a byte beyond the first record it
// returns, and a trace arriving over a pipe yields each record as its last
// byte arrives. On an error buf[0] may be partly written.
//
//flowrank:hotpath
func (r *Reader) ReadBlock(buf []Packet) (int, error) {
	b, _ := r.r.Peek(r.r.Buffered())
	off, nano, i := 0, r.lastNano, 0
	for ; i < len(buf); i++ {
		n, next := decodeRecord(b[off:], &buf[i], nano)
		if n == 0 {
			break
		}
		off, nano = off+n, next
	}
	if i == 0 {
		if err := r.nextBytewise(&buf[0]); err != nil {
			return 0, err
		}
		return 1, nil
	}
	_, _ = r.r.Discard(off) // cannot fail: the records are buffered
	r.lastNano = nano
	return i, nil
}

// decodeRecord decodes the record at the start of b into *p, given the
// previous record's timestamp in nanoseconds, and returns the record's
// length and its timestamp; n is 0, and *p untouched, when b does not
// hold a whole well-formed record.
func decodeRecord(b []byte, p *Packet, lastNano int64) (n int, nano int64) {
	deltaRaw, dn := binary.Uvarint(b)
	if dn <= 0 || len(b) < dn+keyLen {
		return 0, lastNano
	}
	size, sn := binary.Uvarint(b[dn+keyLen:])
	if sn <= 0 {
		return 0, lastNano
	}
	decodeKey(&p.Key, b[dn:dn+keyLen])
	nano = lastNano + unzigzag(deltaRaw)
	p.Time = nanosToSeconds(nano)
	p.Size = int(size)
	return dn + keyLen + sn, nano
}

// nextBytewise decodes one record a byte at a time. It serves the records
// ReadBlock cannot decode in place: one that straddles the end of the
// buffered bytes (the stream's tail included) and one with a malformed
// varint, and so owns every error ReadBlock reports.
func (r *Reader) nextBytewise(p *Packet) error {
	deltaRaw, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("packet: reading timestamp: %w", err)
	}
	r.lastNano += unzigzag(deltaRaw)
	key, err := readKey(r.r)
	if err != nil {
		return fmt.Errorf("packet: reading key: %w", truncated(err))
	}
	size, err := binary.ReadUvarint(r.r)
	if err != nil {
		return fmt.Errorf("packet: reading size: %w", truncated(err))
	}
	p.Time = nanosToSeconds(r.lastNano)
	p.Key = key
	p.Size = int(size)
	return nil
}

// truncated converts a bare EOF in mid-record into ErrUnexpectedEOF so
// callers can distinguish clean end-of-trace from corruption.
func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

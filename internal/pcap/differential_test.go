package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"flowrank/internal/packet"
)

// refReader is the reader as it was before records were decoded out of a
// buffer: two io.ReadFull calls per record straight on the
// underlying reader, the body copied into a grown buffer. It is kept as
// the reference the buffered reader must agree with, packet for packet and
// error for error.
type refReader struct {
	r      io.Reader
	order  binary.ByteOrder
	header Header
	buf    []byte
}

func newRefReader(r io.Reader) (*refReader, error) {
	var hdr [globalHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
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
	return &refReader{r: r, order: order, header: Header{
		SnapLen:  order.Uint32(hdr[16:20]),
		LinkType: order.Uint32(hdr[20:24]),
		Nanos:    nanos,
	}}, nil
}

func (r *refReader) Next() (Packet, error) {
	var hdr [packetHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: reading packet header: %w", err)
	}
	sec := r.order.Uint32(hdr[0:4])
	frac := r.order.Uint32(hdr[4:8])
	inclLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	if inclLen > r.header.SnapLen && r.header.SnapLen > 0 {
		return Packet{}, fmt.Errorf("pcap: record length %d exceeds snap length %d", inclLen, r.header.SnapLen)
	}
	if inclLen > maxRecordLen {
		return Packet{}, fmt.Errorf("pcap: record length %d exceeds the %d-byte sanity cap", inclLen, uint32(maxRecordLen))
	}
	if cap(r.buf) < int(inclLen) {
		r.buf = make([]byte, inclLen)
	}
	r.buf = r.buf[:inclLen]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return Packet{}, fmt.Errorf("pcap: reading packet data: %w", err)
	}
	t := float64(sec)
	if r.header.Nanos {
		t += float64(frac) / 1e9
	} else {
		t += float64(frac) / 1e6
	}
	return Packet{Time: t, Data: r.buf, OrigLen: int(origLen)}, nil
}

// sameError reports whether two errors agree in class (nil, the bare
// io.EOF, a wrapped io.ErrUnexpectedEOF) and in message.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return (a == io.EOF) == (b == io.EOF) &&
		errors.Is(a, io.ErrUnexpectedEOF) == errors.Is(b, io.ErrUnexpectedEOF) &&
		a.Error() == b.Error()
}

// blockLens are the block lengths ReadBlock is checked at: one record,
// two, a length that cuts the buffered records anywhere, and the
// pipeline's.
var blockLens = []int{1, 2, 7, packet.BlockLen}

// diffReaders drives the reader's ReadBlock, at every block length, and
// the reference in lock step over the same bytes, each behind its own
// wrap(...) of them, until the first error. Every packet and that error
// must agree. It returns the packets read and the final error, which
// every block length agrees on.
func diffReaders(t testing.TB, data []byte, wrap func(io.Reader) io.Reader) (n int, err error) {
	t.Helper()
	if wrap == nil {
		wrap = func(r io.Reader) io.Reader { return r }
	}
	for _, block := range blockLens {
		n, err = diffStreams(t, data, wrap(bytes.NewReader(data)), wrap(bytes.NewReader(data)), block)
	}
	return n, err
}

// diffStreams is diffReaders over two streams of the same bytes that the
// caller made, at one block length: subject is read by the reader's
// ReadBlock, block records at most per call, ref by the reference. Every
// call must return n >= 1 records with a nil error or 0 with the error;
// a record must stay within the snap length and the sanity cap.
func diffStreams(t testing.TB, data []byte, subject, ref io.Reader, block int) (int, error) {
	t.Helper()
	got, gerr := NewReader(subject)
	want, werr := newRefReader(ref)
	if !sameError(gerr, werr) {
		t.Fatalf("NewReader: %v, reference: %v", gerr, werr)
	}
	if gerr != nil {
		return 0, gerr
	}
	if got.Header() != want.header {
		t.Fatalf("header %+v, reference %+v", got.Header(), want.header)
	}
	snap := got.Header().SnapLen
	frames := make([]Packet, block)
	// A record holds at least its 16-byte header, so every call consumes
	// 16 bytes or fails, and the bound is never reached by a reader that
	// makes progress.
	for i, calls := 0, 0; calls <= len(data)/packetHeaderLen; calls++ {
		n, gerr := got.ReadBlock(frames)
		if n < 0 || n > block || (n == 0) == (gerr == nil) {
			t.Fatalf("block %d, record %d: ReadBlock = %d records and %v", block, i, n, gerr)
		}
		for _, gp := range frames[:n] {
			wp, werr := want.Next()
			if werr != nil {
				t.Fatalf("block %d, record %d: a record, reference error %v", block, i, werr)
			}
			if gp.Time != wp.Time || gp.OrigLen != wp.OrigLen || !bytes.Equal(gp.Data, wp.Data) {
				t.Fatalf("block %d, record %d: (t=%v, %d bytes, orig %d), reference (t=%v, %d bytes, orig %d)",
					block, i, gp.Time, len(gp.Data), gp.OrigLen, wp.Time, len(wp.Data), wp.OrigLen)
			}
			if snap > 0 && uint32(len(gp.Data)) > snap || len(gp.Data) > maxRecordLen {
				t.Fatalf("block %d, record %d: %d bytes beyond snap length %d or the sanity cap", block, i, len(gp.Data), snap)
			}
			i++
		}
		if gerr == nil {
			continue
		}
		if _, werr := want.Next(); !sameError(gerr, werr) {
			t.Fatalf("block %d, record %d: error %v, reference %v", block, i, gerr, werr)
		}
		return i, gerr
	}
	t.Fatalf("block %d: no error after %d calls on a %d-byte capture", block, len(data)/packetHeaderLen+1, len(data))
	return 0, nil
}

// capture hand-builds a pcap stream in any of the four header variants;
// bodies[i] is record i's captured bytes.
func capture(order binary.ByteOrder, nanos bool, snapLen uint32, bodies ...[]byte) []byte {
	magic := uint32(magicMicroseconds)
	if nanos {
		magic = magicNanoseconds
	}
	out := make([]byte, globalHeaderLen)
	order.PutUint32(out[0:], magic)
	order.PutUint16(out[4:], versionMajor)
	order.PutUint16(out[6:], versionMinor)
	order.PutUint32(out[16:], snapLen)
	order.PutUint32(out[20:], LinkTypeEthernet)
	for i, body := range bodies {
		var hdr [packetHeaderLen]byte
		order.PutUint32(hdr[0:], uint32(100+i))
		order.PutUint32(hdr[4:], uint32(250000+i))
		order.PutUint32(hdr[8:], uint32(len(body)))
		order.PutUint32(hdr[12:], uint32(len(body)+i))
		out = append(out, hdr[:]...)
		out = append(out, body...)
	}
	return out
}

// body returns n bytes that differ between records and along a record.
func body(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + salt)
	}
	return b
}

// stutterReader returns (0, nil) on every other Read, which io.Reader
// permits and a reader must tolerate.
type stutterReader struct {
	r     io.Reader
	calls int
}

func (s *stutterReader) Read(p []byte) (int, error) {
	s.calls++
	if s.calls%2 == 1 {
		return 0, nil
	}
	return s.r.Read(p)
}

var wrappers = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"plain", nil},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"data-err", iotest.DataErrReader},
	{"stutter", func(r io.Reader) io.Reader { return &stutterReader{r: r} }},
}

var variants = []struct {
	name  string
	order binary.ByteOrder
	nanos bool
}{
	{"le-micro", binary.LittleEndian, false},
	{"le-nano", binary.LittleEndian, true},
	{"be-micro", binary.BigEndian, false},
	{"be-nano", binary.BigEndian, true},
}

// TestReaderMatchesReference: through every hostile-but-legal io.Reader
// shape and every header variant, the reader yields the reference's
// packets and ends on the reference's error — for a whole capture and for
// one cut inside a header and inside a body.
func TestReaderMatchesReference(t *testing.T) {
	for _, v := range variants {
		full := capture(v.order, v.nanos, 65535, body(60, 1), nil, body(1500, 2), body(3, 3))
		for _, w := range wrappers {
			for _, cut := range []int{0, 5, 1500} { // bytes dropped from the end
				t.Run(fmt.Sprintf("%s/%s/cut%d", v.name, w.name, cut), func(t *testing.T) {
					n, err := diffReaders(t, full[:len(full)-cut], w.wrap)
					if cut == 0 && (n != 4 || err != io.EOF) {
						t.Fatalf("whole capture: %d records then %v, want 4 then io.EOF", n, err)
					}
					if cut != 0 && !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Fatalf("cut capture ended with %v, want io.ErrUnexpectedEOF", err)
					}
				})
			}
		}
	}
}

// TestReaderRejectsLikeReference: the length checks fire with the
// reference's messages.
func TestReaderRejectsLikeReference(t *testing.T) {
	overSnap := capture(binary.LittleEndian, false, 100, body(10, 1), body(101, 2))
	if n, err := diffReaders(t, overSnap, nil); n != 1 || err == nil || errors.Is(err, io.EOF) {
		t.Errorf("over-snap record: %d records then %v", n, err)
	}
	// Snap length 0 disables the snap check; the sanity cap still holds.
	overCap := capture(binary.BigEndian, true, 0, body(10, 1))
	overCap = append(overCap, make([]byte, packetHeaderLen)...)
	binary.BigEndian.PutUint32(overCap[len(overCap)-8:], maxRecordLen+1)
	if n, err := diffReaders(t, overCap, nil); n != 1 || err == nil || errors.Is(err, io.EOF) {
		t.Errorf("over-cap record: %d records then %v", n, err)
	}
}

// TestReaderTimeout: a transient read error surfaces wrapped and a retry
// resumes, at every block length. The reader meets the error wherever its
// second buffer fill falls — for a capture smaller than the buffer that is
// the end of the stream, where, as in the reference, it is a failed
// header read — so the two are compared on the packets delivered and the
// errors seen, not on where the error interrupts the sequence.
func TestReaderTimeout(t *testing.T) {
	data := capture(binary.LittleEndian, false, 65535, body(60, 1), body(700, 2), body(3, 3))
	type result struct {
		pkts []Packet
		errs []string
	}
	// drain reads until an error other than the timeout, keeping a copy of
	// every packet; a reader stuck on the timeout stops at four errors.
	drain := func(read func() ([]Packet, error)) result {
		var res result
		for len(res.errs) < 4 {
			pkts, err := read()
			for _, p := range pkts {
				p.Data = append([]byte(nil), p.Data...)
				res.pkts = append(res.pkts, p)
			}
			if err == nil {
				continue
			}
			res.errs = append(res.errs, err.Error())
			if !errors.Is(err, iotest.ErrTimeout) {
				break
			}
		}
		return res
	}
	want, err := newRefReader(iotest.TimeoutReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	w := drain(func() ([]Packet, error) {
		p, err := want.Next()
		if err != nil {
			return nil, err
		}
		return []Packet{p}, nil
	})
	for _, block := range blockLens {
		got, err := NewReader(iotest.TimeoutReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		frames := make([]Packet, block)
		g := drain(func() ([]Packet, error) {
			n, err := got.ReadBlock(frames)
			return frames[:n], err
		})
		if fmt.Sprint(g.errs) != fmt.Sprint(w.errs) || len(g.errs) != 2 || g.errs[1] != "EOF" {
			t.Errorf("block %d: errors %q, reference %q, want one timeout then EOF", block, g.errs, w.errs)
		}
		if len(g.pkts) != 3 || len(w.pkts) != 3 {
			t.Fatalf("block %d: %d packets, reference %d, want 3", block, len(g.pkts), len(w.pkts))
		}
		for i := range g.pkts {
			if g.pkts[i].Time != w.pkts[i].Time || !bytes.Equal(g.pkts[i].Data, w.pkts[i].Data) {
				t.Errorf("block %d: packet %d differs from the reference", block, i)
			}
		}
	}
}

// TestReaderTruncatedEverywhere cuts a three-record capture at every byte
// offset: the stream ends in the bare io.EOF exactly when the cut is on a
// record boundary and in a wrapped io.ErrUnexpectedEOF everywhere else.
func TestReaderTruncatedEverywhere(t *testing.T) {
	for _, v := range variants {
		bodies := [][]byte{body(20, 1), nil, body(33, 3)}
		full := capture(v.order, v.nanos, 65535, bodies...)
		boundary := map[int]int{globalHeaderLen: 0} // offset -> records before it
		off := globalHeaderLen
		for i, b := range bodies {
			off += packetHeaderLen + len(b)
			boundary[off] = i + 1
		}
		for cut := 0; cut <= len(full); cut++ {
			n, err := diffReaders(t, full[:cut], nil)
			records, clean := boundary[cut]
			switch {
			case cut < globalHeaderLen:
				if err == nil || err == io.EOF {
					t.Errorf("%s cut %d: NewReader error %v, want a wrapped one", v.name, cut, err)
				}
			case clean:
				if err != io.EOF || n != records {
					t.Errorf("%s cut %d (boundary): %d records then %v, want %d then io.EOF", v.name, cut, n, err, records)
				}
			default:
				if err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Errorf("%s cut %d (mid-record): %v, want wrapped io.ErrUnexpectedEOF", v.name, cut, err)
				}
			}
		}
	}
}

// TestReaderBlockBoundary places the second record at every interesting
// distance before the end of the first buffer fill — starting exactly on
// it, header split across it, header ending on it, body split across it —
// and checks the records on both sides. A last capture runs across several
// refills with a record split at each.
func TestReaderBlockBoundary(t *testing.T) {
	for _, before := range []int{0, 1, 8, 15, 16, 17, 40, 115, 116, 117} {
		// Record 1 ends `before` bytes short of the buffer; record 2 is
		// 16+100 bytes, so it straddles for 0 < before < 116.
		first := blockSize - before - globalHeaderLen - packetHeaderLen
		data := capture(binary.LittleEndian, false, 1<<20, body(first, 1), body(100, 2), body(9, 3), body(1400, 4))
		for _, w := range wrappers {
			if n, err := diffReaders(t, data, w.wrap); n != 4 || err != io.EOF {
				t.Errorf("before=%d %s: %d records then %v, want 4 then io.EOF", before, w.name, n, err)
			}
		}
	}
	bodies := make([][]byte, 700) // ~730 KiB
	for i := range bodies {
		bodies[i] = body(1000+i%53, i)
	}
	data := capture(binary.BigEndian, true, 65535, bodies...)
	if n, err := diffReaders(t, data, nil); n != len(bodies) || err != io.EOF {
		t.Errorf("multi-block capture: %d records then %v, want %d then io.EOF", n, err, len(bodies))
	}
}

// TestReaderRecordLargerThanBlock: with the snap length raised past the
// buffer, a record that cannot be decoded in place takes the copy path and
// the records behind it are still found — including the two sizes either
// side of the largest in-place record.
func TestReaderRecordLargerThanBlock(t *testing.T) {
	for _, n := range []int{blockSize - packetHeaderLen, blockSize - packetHeaderLen + 1, blockSize + 12345, 3 * blockSize} {
		data := capture(binary.BigEndian, false, 1<<24, body(50, 1), body(n, 2), body(60, 3), body(n, 4), body(7, 5))
		for _, w := range wrappers {
			if got, err := diffReaders(t, data, w.wrap); got != 5 || err != io.EOF {
				t.Errorf("body %d %s: %d records then %v, want 5 then io.EOF", n, w.name, got, err)
			}
		}
		// Cut inside the big body: a truncation, not a clean end.
		if _, err := diffReaders(t, data[:globalHeaderLen+packetHeaderLen+50+packetHeaderLen+n/2], nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("body %d cut: %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
}

// TestReaderDataValidUntilNext: a frame's Data stays unchanged until the
// reader's next call — every frame a ReadBlock returned, at every block
// length, and Next's — across refills with a record split at each, and
// with a record larger than the buffer, copied into one of its own, among
// them.
func TestReaderDataValidUntilNext(t *testing.T) {
	bodies := make([][]byte, 1500) // ~1.5 MiB: six refills
	for i := range bodies {
		bodies[i] = body(1000+i%53, i)
	}
	bodies[700] = body(blockSize+100, 700)
	data := capture(binary.LittleEndian, false, 1<<20, bodies...)
	for _, block := range append([]int{0}, blockLens...) { // 0: Next
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		frames := make([]Packet, max(block, 1))
		for i := 0; i < len(bodies); {
			n := 1
			if block == 0 {
				frames[0], err = r.Next()
			} else {
				n, err = r.ReadBlock(frames)
			}
			if err != nil {
				t.Fatalf("block %d, record %d: %v", block, i, err)
			}
			for j, p := range frames[:n] {
				if !bytes.Equal(p.Data, bodies[i+j]) {
					t.Fatalf("block %d, record %d: Data changed before the next call", block, i+j)
				}
			}
			i += n
		}
	}
}

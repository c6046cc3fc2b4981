package packet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// refReader is the packet reader as it was before records were decoded in
// place: every varint byte and the key come through bufio.Reader method
// calls. It is kept as the reference the block decode must agree with,
// packet for packet and error for error.
type refReader struct {
	r        *bufio.Reader
	lastNano int64
}

func newRefReader(r io.Reader) (*refReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("packet: reading header: %w", err)
	}
	if hdr != packetMagic {
		return nil, ErrBadMagic
	}
	return &refReader{r: br}, nil
}

func (r *refReader) Next() (Packet, error) {
	deltaRaw, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("packet: reading timestamp: %w", err)
	}
	r.lastNano += unzigzag(deltaRaw)
	key, err := readKey(r.r)
	if err != nil {
		return Packet{}, fmt.Errorf("packet: reading key: %w", truncated(err))
	}
	size, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Packet{}, fmt.Errorf("packet: reading size: %w", truncated(err))
	}
	return Packet{Time: nanosToSeconds(r.lastNano), Key: key, Size: int(size)}, nil
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
var blockLens = []int{1, 2, 7, BlockLen}

// diffReaders drives the reader, at every block length, and the reference
// in lock step over the same bytes, each behind its own wrap(...) of them,
// until the first error. Every packet and that error must agree. It
// returns the packets read and the final error, which every block length
// agrees on.
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
// ReadBlock, block records at most per call, ref by the reference.
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
	buf := make([]Packet, block)
	// Every call consumes a byte or fails, so the bound is never reached
	// by a reader that makes progress.
	for i, calls := 0, 0; calls <= len(data); calls++ {
		n, gerr := got.ReadBlock(buf)
		if n < 0 || n > block || (n == 0) == (gerr == nil) {
			t.Fatalf("block %d, record %d: ReadBlock = %d records and %v", block, i, n, gerr)
		}
		for _, gp := range buf[:n] {
			wp, werr := want.Next()
			if werr != nil {
				t.Fatalf("block %d, record %d: %+v, reference error %v", block, i, gp, werr)
			}
			if gp != wp {
				t.Fatalf("block %d, record %d: %+v, reference %+v", block, i, gp, wp)
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
	t.Fatalf("block %d: no error after %d calls on a %d-byte trace", block, len(data)+1, len(data))
	return 0, nil
}

// encode writes pkts in the native format.
func encode(t testing.TB, pkts []Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// TestReaderMatchesReference: through every hostile-but-legal io.Reader
// shape the in-place decode yields the reference's packets and ends on
// its error — for a whole trace of several blocks, with time going
// backwards and sizes of every varint length in it, and for a trace cut
// inside a record.
func TestReaderMatchesReference(t *testing.T) {
	pkts := samplePackets(48000, 4) // ~840 KB: three block refills
	for i := range pkts {
		switch i % 97 {
		case 0:
			pkts[i].Time -= 0.5 // zig-zag delta of the other sign
		case 1:
			pkts[i].Size = 0
		case 2:
			pkts[i].Size = 1 << (uint(i) % 62) // sizes of every varint length
		}
	}
	full := encode(t, pkts)
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			if n, err := diffReaders(t, full, w.wrap); n != len(pkts) || err != io.EOF {
				t.Fatalf("whole trace: %d records then %v, want %d then io.EOF", n, err, len(pkts))
			}
			if _, err := diffReaders(t, full[:len(full)-7], w.wrap); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut trace ended with %v, want io.ErrUnexpectedEOF", err)
			}
		})
	}
}

// TestReaderBlockBoundary slides a long trace past the end of the reader's
// first block in steps of 15 to 17 bytes — record lengths the mean record
// is not a multiple of — so that the block ends at many different offsets
// inside a record.
func TestReaderBlockBoundary(t *testing.T) {
	pkts := samplePackets(18000, 5) // ~320 KB, past the 256 KiB block
	for shift := 0; shift < 36; shift++ {
		lead := make([]Packet, shift)
		for i := range lead {
			lead[i].Size = 1 << (7 * (i % 3)) // a 1-, 2- or 3-byte size varint
		}
		data := encode(t, append(lead, pkts...))
		if n, err := diffReaders(t, data, nil); n != shift+len(pkts) || err != io.EOF {
			t.Fatalf("shift %d: %d records then %v, want %d then io.EOF", shift, n, err, shift+len(pkts))
		}
	}
}

// TestReaderTimeout: a transient read error surfaces wrapped and a retry
// resumes, at every block length. Both readers buffer, so both meet the
// error at their second block read, the end of this small trace: the
// records before it come first, then the timeout, then io.EOF.
func TestReaderTimeout(t *testing.T) {
	pkts := samplePackets(3, 6)
	data := encode(t, pkts)
	for _, block := range blockLens {
		got, err := NewReader(iotest.TimeoutReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := newRefReader(iotest.TimeoutReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Packet, block)
		var errs []error
		for i := 0; i < len(pkts)+2 && len(errs) < 2; {
			n, gerr := got.ReadBlock(buf)
			for _, gp := range buf[:n] {
				if wp, werr := want.Next(); werr != nil || gp != wp {
					t.Fatalf("block %d, record %d: %+v, reference (%+v, %v)", block, i, gp, wp, werr)
				}
				i++
			}
			if gerr == nil {
				continue
			}
			if _, werr := want.Next(); !sameError(gerr, werr) {
				t.Fatalf("block %d, record %d: error %v, reference %v", block, i, gerr, werr)
			}
			if i != len(pkts) {
				t.Fatalf("block %d: %v after %d records, want %d first", block, gerr, i, len(pkts))
			}
			errs = append(errs, gerr)
		}
		if len(errs) != 2 || !errors.Is(errs[0], iotest.ErrTimeout) || errs[1] != io.EOF {
			t.Fatalf("block %d: errors %v, want the timeout, then io.EOF after the retry", block, errs)
		}
	}
}

// TestReaderTruncatedEverywhere cuts a three-record trace at every byte
// offset: the stream ends in the bare io.EOF exactly when the cut is on a
// record boundary and in a wrapped io.ErrUnexpectedEOF everywhere else.
func TestReaderTruncatedEverywhere(t *testing.T) {
	pkts := samplePackets(3, 7) // Δt ≈ 1 ms: multi-byte timestamp varints
	full := encode(t, pkts)
	boundary := map[int]int{len(packetMagic): 0} // offset -> records before it
	for i := range pkts {
		boundary[len(encode(t, pkts[:i+1]))] = i + 1
	}
	for cut := 0; cut <= len(full); cut++ {
		n, err := diffReaders(t, full[:cut], nil)
		records, clean := boundary[cut]
		switch {
		case cut < len(packetMagic):
			if err == nil || err == io.EOF {
				t.Errorf("cut %d: NewReader error %v, want a wrapped one", cut, err)
			}
		case clean:
			if err != io.EOF || n != records {
				t.Errorf("cut %d (boundary): %d records then %v, want %d then io.EOF", cut, n, err, records)
			}
		default:
			if err == io.EOF || !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("cut %d (mid-record): %v, want wrapped io.ErrUnexpectedEOF", cut, err)
			}
		}
	}
}

// malformedSeeds are the hand-built traces the differential test and the
// fuzz corpus share.
func malformedSeeds(t testing.TB) map[string][]byte {
	valid := encode(t, samplePackets(3, 8))
	overlong := bytes.Repeat([]byte{0xff}, 10)
	overlong = append(overlong, 0x01) // 11-byte varint
	key := make([]byte, keyLen)
	with := func(parts ...[]byte) []byte {
		out := append([]byte(nil), valid...)
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return map[string][]byte{
		"valid":              valid,
		"truncated varint":   with([]byte{0x80, 0x80}),
		"overlong timestamp": with(overlong, key, []byte{1}, valid[len(packetMagic):]),
		"overlong size":      with([]byte{2}, key, overlong, valid[len(packetMagic):]),
		"tenth byte too big": with(bytes.Repeat([]byte{0x80}, 9), []byte{0x02}, key, []byte{1}),
		"truncated key":      with([]byte{2}, key[:6]),
		"missing size":       with([]byte{2}, key),
		"non-minimal varint": with([]byte{0x82, 0x00}, key, []byte{0x81, 0x80, 0x00}),
		"bad magic":          []byte("FPKT\x02trailing"),
		"empty":              nil,
	}
}

// TestReaderMalformed: a malformed varint is reported with the byte-wise
// decoder's message from the in-place path too, wherever it sits in the
// record and whatever follows it.
func TestReaderMalformed(t *testing.T) {
	for name, data := range malformedSeeds(t) {
		for _, w := range wrappers {
			diffReaders(t, data, w.wrap)
		}
		if _, err := diffReaders(t, data, nil); name != "valid" && name != "non-minimal varint" && (err == nil || err == io.EOF) {
			t.Errorf("%s: ended with %v, want a decode error", name, err)
		}
	}
}

// FuzzPacketReader: decoding arbitrary bytes must never panic or loop,
// and ReadBlock, at the block length pick selects from blockLens, must
// yield the byte-wise reference reader's packets and end on its error.
func FuzzPacketReader(f *testing.F) {
	for _, seed := range malformedSeeds(f) {
		for pick := range blockLens {
			f.Add(seed, uint8(pick))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		block := blockLens[int(pick)%len(blockLens)]
		diffStreams(t, data, bytes.NewReader(data), bytes.NewReader(data), block)
	})
}

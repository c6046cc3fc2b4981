package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// fuzzSeedCapture returns a valid two-packet little-endian microsecond
// capture for the reader corpus.
func fuzzSeedCapture(f *testing.F) []byte {
	f.Helper()
	var b bytes.Buffer
	w, err := NewWriter(&b, 128)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.Write(Packet{Time: 1.5, Data: []byte{1, 2, 3}, OrigLen: 3}); err != nil {
		f.Fatal(err)
	}
	if err := w.Write(Packet{Time: 2.25, Data: bytes.Repeat([]byte{7}, 60), OrigLen: 200}); err != nil {
		f.Fatal(err)
	}
	return b.Bytes()
}

// FuzzReader: parsing arbitrary bytes must never panic, never hand back a
// record longer than the snap length, and never allocate a corrupt
// header's multi-gigabyte length claim (the sanity cap turns that into a
// parse error). It is differential: ReadBlock, at every block length of
// blockLens, must yield the unbuffered reference reader's packets and end
// on its error, and every call must return records or an error, never
// both — internal/source's PcapSource.NextBlock keys the block it gets.
func FuzzReader(f *testing.F) {
	seed := fuzzSeedCapture(f)
	f.Add(seed)
	f.Add(seed[:globalHeaderLen])              // header only
	f.Add(seed[:globalHeaderLen+5])            // truncated packet header
	f.Add(seed[:len(seed)-2])                  // truncated packet data
	f.Add([]byte("not a pcap file, honestly")) // bad magic

	// Big-endian and nanosecond variants of the global header exercise the
	// byte-order/timestamp detection paths.
	be := make([]byte, globalHeaderLen+packetHeaderLen+4)
	binary.BigEndian.PutUint32(be[0:], magicMicroseconds)
	binary.BigEndian.PutUint32(be[16:], 65535)
	binary.BigEndian.PutUint32(be[20:], LinkTypeEthernet)
	binary.BigEndian.PutUint32(be[globalHeaderLen+8:], 4) // inclLen
	f.Add(be)
	nanos := append([]byte{}, seed...)
	binary.LittleEndian.PutUint32(nanos[0:], magicNanoseconds)
	f.Add(nanos)
	// The second record (60 bytes) lies whole in the buffer but exceeds
	// the snap length: ReadBlock must return the first alone, then fail.
	overSnap := append([]byte{}, seed...)
	binary.LittleEndian.PutUint32(overSnap[16:], 16)
	f.Add(overSnap)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, block := range blockLens {
			diffStreams(t, data, bytes.NewReader(data), bytes.NewReader(data), block)
		}
	})
}

// FuzzWriterRoundTrip: any packet the writer accepts must read back with
// the same bytes, the same original length, and a timestamp within the
// microsecond quantization of the format.
func FuzzWriterRoundTrip(f *testing.F) {
	f.Add(0.0, uint32(0), []byte{})
	f.Add(1.5, uint32(100), []byte{1, 2, 3})
	f.Add(0.2999995, uint32(3), []byte{9})     // rounds up to 300000 us
	f.Add(86399.9999996, uint32(0), []byte{1}) // usec rounds to 1e6: carry
	f.Add(4294967295.2, uint32(1), []byte{5})  // near the 2^32 edge
	f.Add(-1.0, uint32(0), []byte{1})          // negative: must be rejected
	f.Add(math.NaN(), uint32(0), []byte{1})    // NaN: must be rejected
	f.Add(7.25, uint32(2000), bytes.Repeat([]byte{3}, 900))
	f.Fuzz(func(t *testing.T, tm float64, origLen uint32, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		var b bytes.Buffer
		w, err := NewWriter(&b, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(Packet{Time: tm, Data: data, OrigLen: int(origLen)}); err != nil {
			if tm >= 0 && tm < (1<<32)-1 {
				t.Fatalf("in-range packet rejected: %v", err)
			}
			return
		}
		if !(tm >= 0 && tm < 1<<32) {
			t.Fatalf("out-of-range timestamp %g accepted", tm)
		}
		r, err := NewReader(&b)
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data, data) {
			t.Fatalf("data drifted: %d bytes became %d", len(data), len(p.Data))
		}
		wantOrig := int(origLen)
		if wantOrig < len(data) {
			wantOrig = len(data)
		}
		if p.OrigLen != wantOrig {
			t.Fatalf("orig length %d, want %d", p.OrigLen, wantOrig)
		}
		// Encoding quantizes to the nearest microsecond; decoding re-adds
		// sec and usec in float64. Allow the quantization step plus a few
		// ulps at the second's magnitude.
		tol := 5.1e-7 + 4*(math.Nextafter(math.Max(tm, 1), math.Inf(1))-math.Max(tm, 1))
		if math.Abs(p.Time-tm) > tol {
			t.Fatalf("timestamp %g read back as %g (off by %g, tol %g)", tm, p.Time, p.Time-tm, tol)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("expected clean EOF after one record, got %v", err)
		}
	})
}

package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"flowrank/internal/blockio"
)

// diffReadAhead is diffReaders with the block reader reading ahead of the
// decoder — what internal/source's Open puts under a capture file — and
// the reference on the plain bytes.
func diffReadAhead(t *testing.T, data []byte) (int, error) {
	t.Helper()
	br := blockio.NewReadAhead(io.NopCloser(bytes.NewReader(data)))
	defer br.Close()
	return diffStreams(t, data, br, bytes.NewReader(data))
}

// TestReaderReadAhead: reading ahead changes nothing a caller can see.
// Records end exactly on a block boundary, one byte before and one byte
// after it, and with the header split across it; a capture runs over a
// dozen blocks with a record cut by each; a record larger than a block
// (readBig) sits between in-place ones, whole and truncated.
func TestReaderReadAhead(t *testing.T) {
	for _, before := range []int{0, 1, 8, 15, 16, 17, 115, 116, 117} {
		// Record 1 ends `before` bytes short of the first block; record 2
		// is 16+100 bytes: it ends on the boundary for before = 116, one
		// byte short of it for 117 and one byte past it for 115.
		first := blockSize - before - globalHeaderLen - packetHeaderLen
		data := capture(binary.LittleEndian, false, 1<<20, body(first, 1), body(100, 2), body(9, 3), body(1400, 4))
		if n, err := diffReadAhead(t, data); n != 4 || err != io.EOF {
			t.Errorf("before=%d: %d records then %v, want 4 then io.EOF", before, n, err)
		}
	}

	bodies := make([][]byte, 3000) // ~3 MiB
	for i := range bodies {
		bodies[i] = body(1000+i%53, i)
	}
	data := capture(binary.BigEndian, true, 65535, bodies...)
	if n, err := diffReadAhead(t, data); n != len(bodies) || err != io.EOF {
		t.Errorf("multi-block capture: %d records then %v, want %d then io.EOF", n, err, len(bodies))
	}
	if _, err := diffReadAhead(t, data[:len(data)-500]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("multi-block capture cut in its last record: %v, want io.ErrUnexpectedEOF", err)
	}

	for _, n := range []int{blockSize - packetHeaderLen, blockSize - packetHeaderLen + 1, 3*blockSize + 12345} {
		data := capture(binary.BigEndian, false, 1<<24, body(50, 1), body(n, 2), body(60, 3), body(n, 4), body(7, 5))
		if got, err := diffReadAhead(t, data); got != 5 || err != io.EOF {
			t.Errorf("body %d: %d records then %v, want 5 then io.EOF", n, got, err)
		}
		if _, err := diffReadAhead(t, data[:globalHeaderLen+packetHeaderLen+50+packetHeaderLen+n/2]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("body %d cut: %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
}

// TestReaderDataValidUntilNext: reading ahead, a packet's Data still
// aliases a block nobody writes to before the following Next — also for
// the record whose first part was carried in front of the next block.
func TestReaderDataValidUntilNext(t *testing.T) {
	bodies := make([][]byte, 1500) // ~1.5 MiB: six blocks, a record across each boundary
	for i := range bodies {
		bodies[i] = body(1000+i%53, i)
	}
	data := capture(binary.LittleEndian, false, 65535, bodies...)
	br := blockio.NewReadAhead(io.NopCloser(bytes.NewReader(data)))
	defer br.Close()
	r, err := NewReader(br)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range bodies {
		p, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		// The goroutine is free to fill every buffer but this one now.
		for spin := 0; spin < 3; spin++ {
			if !bytes.Equal(p.Data, want) {
				t.Fatalf("record %d: Data changed before the following Next", i)
			}
		}
	}
}

package blockio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// pattern returns n bytes in which any run of four identifies its offset
// well enough for these tests (period 251·256).
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i%251 + i/251)
	}
	return b
}

// subject is what the decoders use of a buffered reader; bufio.Reader is
// the reference implementation of it.
type subject interface {
	Peek(n int) ([]byte, error)
	Discard(n int) (int, error)
	ReadByte() (byte, error)
	Read(p []byte) (int, error)
}

// An op is one call on a subject: Peek(n), Discard(n), ReadByte() or
// io.ReadFull over n bytes (the only way the decoders call Read).
type op struct {
	kind byte // 'p', 'd', 'b', 'f'
	n    int
}

// apply runs one op and renders everything observable about its outcome.
func apply(s subject, o op) string {
	switch o.kind {
	case 'p':
		b, err := s.Peek(o.n)
		return fmt.Sprintf("Peek(%d) = %x, %v", o.n, b, err)
	case 'd':
		n, err := s.Discard(o.n)
		return fmt.Sprintf("Discard(%d) = %d, %v", o.n, n, err)
	case 'b':
		c, err := s.ReadByte()
		return fmt.Sprintf("ReadByte() = %02x, %v", c, err)
	default:
		p := make([]byte, o.n)
		n, err := io.ReadFull(s, p)
		return fmt.Sprintf("ReadFull(%d) = %x, %v", o.n, p[:n], err)
	}
}

// lockstep runs the tape on bufio.Reader and on each block reader, every
// one over its own mk() of the same stream, and requires every op to come
// out the same. What a reader returns depends on the stream alone, not on
// where its buffer happens to end, so this holds although the three lay
// their bytes out differently — with one caveat the callers arrange for:
// an error the stream delivers between two reads (a timeout) must fall at
// the same read, i.e. blocks and the bufio buffer are the same size.
func lockstep(t testing.TB, size int, tape []op, mk func() io.Reader) {
	t.Helper()
	ref := bufio.NewReaderSize(mk(), size)
	sync := newReader(mk(), size)
	ahead := newReadAhead(io.NopCloser(mk()), size)
	defer ahead.Close()
	for i, o := range tape {
		want := apply(ref, o)
		if got := apply(sync, o); got != want {
			t.Fatalf("op %d: %s\n       bufio: %s", i, got, want)
		}
		if got := apply(ahead, o); got != want {
			t.Fatalf("op %d, reading ahead: %s\n       bufio: %s", i, got, want)
		}
	}
}

// randomTape draws ops whose sizes crowd around the block size, then ops
// to drain the stream and meet its end several times.
func randomTape(rng *rand.Rand, size, streamLen int) []op {
	var tape []op
	sizes := []int{0, 1, 2, 3, size / 2, size - 1, size, size + 1, 2*size + 3}
	for consumed := 0; consumed < streamLen+4*size; {
		o := op{kind: "pdbf"[rng.Intn(4)], n: sizes[rng.Intn(len(sizes))]}
		if rng.Intn(3) == 0 {
			o.n = rng.Intn(size + 2)
		}
		tape = append(tape, o)
		switch o.kind {
		case 'd', 'f':
			consumed += o.n
		case 'b':
			consumed++
		}
	}
	return tape
}

// emptyReader returns (0, nil) forever.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, nil }

// stutterReader returns (0, nil) on every other Read.
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

// TestLockstepWithBufio: over every hostile-but-legal reader shape, Peek,
// Discard, ReadByte and Read (through io.ReadFull) return what bufio's
// return, bytes and errors, synchronously and reading ahead.
func TestLockstepWithBufio(t *testing.T) {
	const size = 16 // bufio's minimum
	data := pattern(40*size + 5)
	shapes := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"plain", func(r io.Reader) io.Reader { return r }},
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
		{"timeout", iotest.TimeoutReader},
		{"stutter", func(r io.Reader) io.Reader { return &stutterReader{r: r} }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				n := len(data)
				if seed%4 == 3 {
					n = int(seed) * size / 4 // short streams, some a whole number of blocks
				}
				tape := randomTape(rand.New(rand.NewSource(seed)), size, n)
				if shape.name == "timeout" {
					// bufio hands a Read of a block or more straight to the
					// stream, which moves the second Read — the one that
					// times out — to another byte: keep them shorter.
					for i := range tape {
						tape[i].n %= size
					}
				}
				lockstep(t, size, tape, func() io.Reader { return shape.wrap(bytes.NewReader(data[:n])) })
			}
		})
	}
	// A reader that never makes progress ends every op in io.ErrNoProgress
	// after bufio's hundred tries — and, unlike bufio's, a Read too, where
	// bufio passes the (0, nil) on and io.ReadFull over it never returns.
	t.Run("empty", func(t *testing.T) {
		tape := []op{{'p', 1}, {'b', 0}, {'d', 3}, {'p', 0}, {'p', size + 1}, {'b', 0}}
		lockstep(t, size, tape, func() io.Reader { return emptyReader{} })
		if n, err := io.ReadFull(newReader(emptyReader{}, size), make([]byte, 4)); n != 0 || err != io.ErrNoProgress {
			t.Errorf("ReadFull over a reader that makes no progress = %d, %v, want io.ErrNoProgress", n, err)
		}
	})
	t.Run("negative", func(t *testing.T) {
		lockstep(t, size, []op{{'p', -1}, {'d', -1}, {'p', 3}}, func() io.Reader { return bytes.NewReader(data) })
	})
}

// TestReadIsAnIOReader: Read by itself (not only under io.ReadFull) keeps
// the io.Reader contract, synchronously and reading ahead.
func TestReadIsAnIOReader(t *testing.T) {
	data := pattern(1000)
	if err := iotest.TestReader(newReader(bytes.NewReader(data), 64), data); err != nil {
		t.Error(err)
	}
	ahead := newReadAhead(io.NopCloser(bytes.NewReader(data)), 64)
	defer ahead.Close()
	if err := iotest.TestReader(ahead, data); err != nil {
		t.Errorf("reading ahead: %v", err)
	}
}

// records walks a stream as a decoder does — Peek a record, check it,
// Discard it — with records sized so that they end exactly on, one byte
// before and one byte after a block boundary, and everywhere else. The
// previous record must still read the same after the next one was peeked
// out of bytes already buffered.
func records(t *testing.T, b *Reader, data []byte, lens []int) {
	t.Helper()
	off := 0
	for i := 0; off < len(data); i++ {
		n := lens[i%len(lens)]
		if n > len(data)-off {
			n = len(data) - off
		}
		rec, err := b.Peek(n)
		if err != nil || !bytes.Equal(rec, data[off:off+n]) {
			t.Fatalf("record %d at offset %d: Peek(%d) = %d bytes, %v; want the stream's", i, off, n, len(rec), err)
		}
		if b.Buffered() >= n+4 && n+4 <= b.size { // the following Peek reads nothing
			next, _ := b.Peek(n + 4)
			if !bytes.Equal(rec, data[off:off+n]) || !bytes.Equal(next[n:], data[off+n:off+n+4]) {
				t.Fatalf("record %d: a Peek of buffered bytes disturbed the slice before it", i)
			}
		}
		if _, err := b.Discard(n); err != nil {
			t.Fatalf("record %d: Discard(%d): %v", i, n, err)
		}
		off += n
	}
	if rec, err := b.Peek(1); len(rec) != 0 || err != io.EOF {
		t.Fatalf("at the end: Peek(1) = %d bytes, %v; want io.EOF", len(rec), err)
	}
}

func TestRecordsAcrossBlockBoundaries(t *testing.T) {
	const size = 64
	data := pattern(50*size + 17)
	for _, lens := range [][]int{
		{size},             // every record ends exactly on a boundary
		{size - 1, 1},      // one byte before, then the byte that reaches it
		{size - 1, 2, 61},  // one byte before, then one byte after
		{size + 1 - 8, 8},  // a header-sized record split 7:1 by the boundary
		{1, size, 3},       // whole-block records at every phase
		{37, 5, 64, 11, 2}, // nothing aligned
	} {
		records(t, newReader(bytes.NewReader(data), size), data, lens)
		records(t, newReader(iotest.HalfReader(bytes.NewReader(data)), size), data, lens)
		ahead := newReadAhead(io.NopCloser(bytes.NewReader(data)), size)
		records(t, ahead, data, lens)
		<-ahead.a.done // the goroutine met EOF: it is gone without a Close
		ahead.Close()
	}
}

// gate is a stream of whole blocks that blocks once it has delivered
// `blocks` of them, until it is closed.
type gate struct {
	size, blocks int
	closed       chan struct{}
	once         sync.Once
	closes       int
}

func (g *gate) Read(p []byte) (int, error) {
	if g.blocks == 0 {
		<-g.closed
		return 0, os.ErrClosed
	}
	g.blocks--
	return copy(p, pattern(g.size)), nil
}

func (g *gate) Close() error {
	g.closes++
	g.once.Do(func() { close(g.closed) })
	return nil
}

// TestCloseUnblocksReader: with the goroutine blocked in a Read and the
// reader parked waiting for it, Close from a third goroutine fails the
// pending call with an error matching os.ErrClosed and returns only when
// the goroutine is gone.
func TestCloseUnblocksReader(t *testing.T) {
	const size = 32
	g := &gate{size: size, blocks: 5, closed: make(chan struct{})}
	b := newReadAhead(g, size)
	for i := 0; i < 5; i++ {
		if _, err := b.Discard(size); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	got := make(chan error, 1) // one send: the reader goroutine never waits on the test
	go func() {
		_, err := b.Peek(1)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Peek returned %v before any byte or Close", err)
	case <-time.After(20 * time.Millisecond): // long enough to have parked; the test holds either way
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.a.done:
	default:
		t.Fatal("Close returned before the read-ahead goroutine exited")
	}
	if err := <-got; !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Peek interrupted by Close = %v, want an error matching os.ErrClosed", err)
	}
	if _, err := b.Peek(1); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Peek after Close = %v, want an error matching os.ErrClosed", err)
	}
	if g.closes != 1 {
		t.Fatalf("underlying reader closed %d times, want 1", g.closes)
	}
}

// TestCloseWithBlocksUnread: Close while the goroutine waits for a free
// buffer (the reader stopped decoding) ends it too, and what the reader
// then gets is the closed error, never a stream with a hole in it.
func TestCloseWithBlocksUnread(t *testing.T) {
	const size = 32
	data := pattern(40 * size)
	b := newReadAhead(io.NopCloser(bytes.NewReader(data)), size)
	if _, err := b.Discard(3*size + 1); err != nil { // blocks queued behind this one
		t.Fatal(err)
	}
	b.Close()
	<-b.a.done
	off := 3*size + 1
	for {
		rec, err := b.Peek(5)
		if err != nil {
			if !errors.Is(err, os.ErrClosed) {
				t.Fatalf("after Close: %v, want an error matching os.ErrClosed", err)
			}
			break
		}
		if !bytes.Equal(rec, data[off:off+5]) {
			t.Fatalf("after Close: bytes at offset %d are not the stream's", off)
		}
		b.Discard(5)
		off += 5
	}
	if off >= len(data) {
		t.Fatal("the reader drained the whole stream after Close")
	}
}

// TestTransientErrorIsRetried: the goroutine exits at the first error; the
// reader reports it once, where bufio would, and its retry reads on
// synchronously, losing nothing.
func TestTransientErrorIsRetried(t *testing.T) {
	const size = 16
	data := pattern(9 * size)
	var reads int
	flaky := readerFunc(func(p []byte) (int, error) {
		reads++
		if reads == 5 {
			return 0, iotest.ErrTimeout
		}
		off := (reads - 1) * size
		if reads > 5 {
			off -= size
		}
		if off >= len(data) {
			return 0, io.EOF
		}
		return copy(p, data[off:off+size]), nil
	})
	b := newReadAhead(io.NopCloser(flaky), size)
	defer b.Close()
	var got []byte
	var errs []error
	for len(errs) < 2 {
		c, err := b.ReadByte()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		got = append(got, c)
	}
	if errs[0] != iotest.ErrTimeout || errs[1] != io.EOF {
		t.Errorf("errors %v, want the timeout then io.EOF", errs)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("%d bytes read around the timeout, want the stream's %d unchanged", len(got), len(data))
	}
	<-b.a.done
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestNewReaderKeepsAReader: handed a Reader, NewReader wraps nothing.
func TestNewReaderKeepsAReader(t *testing.T) {
	b := NewReadAhead(io.NopCloser(bytes.NewReader(nil)))
	defer b.Close()
	if NewReader(b) != b {
		t.Error("NewReader wrapped a *Reader in another")
	}
}

// FuzzBlockReader: an op tape of Peek/Discard/ReadByte/ReadFull sizes over
// a stream cut into chunks the tape also chooses — whole blocks among
// them, so the read-ahead starts — against bufio.Reader.
func FuzzBlockReader(f *testing.F) {
	f.Add([]byte{16, 16, 16, 16, 3, 16}, []byte("p\x10d\x10p\x11d\x0fb\x00f\x21p\x05"), uint16(200))
	f.Add([]byte{1, 2, 3}, []byte("p\x01d\x01p\x10d\x10"), uint16(64))
	f.Add([]byte{0, 16}, []byte("f\xffb\x00p\x00"), uint16(33))
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, chunks, ops []byte, streamLen uint16) {
		const size = 16
		data := pattern(int(streamLen) % 1024)
		var tape []op
		for i := 0; i+1 < len(ops) && len(tape) < 256; i += 2 {
			tape = append(tape, op{kind: "pdbf"[ops[i]%4], n: int(ops[i+1]) % (3 * size)})
		}
		lockstep(t, size, tape, func() io.Reader { return &chunkReader{data: data, chunks: chunks} })
	})
}

// chunkReader delivers data in Reads of the sizes in chunks, cycled; a
// zero is an empty Read, followed by a one-byte one so that the stream
// always makes progress.
type chunkReader struct {
	data   []byte
	chunks []byte
	i      int
	empty  bool
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.chunks) > 0 && !c.empty {
		n = int(c.chunks[c.i%len(c.chunks)])
		c.i++
		if n == 0 {
			c.empty = true
			return 0, nil
		}
	}
	if c.empty {
		c.empty, n = false, 1
	}
	n = copy(p[:min(n, len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}

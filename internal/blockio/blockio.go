// Package blockio is the block reader under both trace decoders
// (internal/pcap, internal/packet): the subset of bufio.Reader they decode
// records out of — Peek, Discard, Buffered, ReadByte, Read, with bufio's
// results and errors — over one block size, in two ways of getting the
// bytes there; and Ahead, the one protocol by which anything in this
// module is read ahead of its consumer.
//
// A reader from NewReader reads synchronously into one block, as bufio
// does, and never owns a goroutine.
//
// A reader from NewReadAhead overlaps the underlying Reads with its
// caller's decoding: one goroutine keeps up to three blocks filled while
// the caller works through the current one. Blocks are read at a fixed
// offset into buffers that keep one block of headroom in front of it, so
// when a record straddles the end of a block only its first part is
// copied, in front of the next block — a block's worth of bytes is never
// slid to make room. The goroutine hands over whatever each Read returned,
// so bytes that arrive slowly are still seen as they arrive, allocates
// nothing per block, and exits at the first error (the end of the stream
// included), from where the reader reads synchronously, or on Close.
//
// Either way a slice Peek returned stays valid, and unchanged, until the
// next call that has to read.
//
// Ahead is that goroutine with the buffer's element left open: bytes for
// NewReadAhead, decoded packets for internal/source, whose goroutine runs
// a whole synchronous pcap decoder (a NewReader of its own, the record
// parse and the flow key) and hands over batches of packets, so a frame is
// parsed on the core that read it. Both share the free and ready queues,
// the exit at the first failed fill, and the shutdown: the owner closes
// the file, so that a blocked read returns, then stops the goroutine and
// waits for it to exit.
package blockio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
)

const (
	// BlockSize is what one underlying Read is asked for, and the longest
	// Peek: any record up to this size is decoded in place.
	BlockSize = 1 << 18
	// Depth is how many buffers a read-ahead goroutine may hold filled
	// beyond the one its consumer is working through. One is not enough:
	// waking a parked thread costs about as long as decoding a block, so
	// the decoder would wait at every block (ROADMAP, "Decided against").
	Depth = 3
	// maxEmptyReads is bufio's bound on consecutive (0, nil) Reads.
	maxEmptyReads = 100
)

// errClosed is what a read that Close interrupted reports.
var errClosed = fmt.Errorf("blockio: read interrupted by Close: %w", os.ErrClosed)

// Reader reads an io.Reader block by block. Apart from Close it is not
// safe for concurrent use.
type Reader struct {
	rd   io.Reader
	size int // block size: BlockSize outside this package's tests
	// buf is one block in a reader that was synchronous from the start;
	// reading ahead it is one of the buffers that circulate between the
	// reader and the goroutine, a block of headroom and then the block.
	buf  []byte
	r, w int   // buf[r:w] is buffered and unread
	err  error // the last Read's error, reported once

	a     *Ahead[byte] // nil from NewReader; never reassigned
	async bool         // blocks come from a's goroutine
}

// NewReader returns a Reader over rd that reads synchronously; if rd
// already is a Reader, it is returned as it is.
func NewReader(rd io.Reader) *Reader {
	if b, ok := rd.(*Reader); ok {
		return b
	}
	return newReader(rd, BlockSize)
}

func newReader(rd io.Reader, size int) *Reader {
	return &Reader{rd: rd, size: size, buf: make([]byte, size)}
}

// NewReadAhead returns a Reader over rc that reads ahead of its caller, as
// the package comment describes, from now on. The caller must Close it.
func NewReadAhead(rc io.ReadCloser) *Reader { return newReadAhead(rc, BlockSize) }

func newReadAhead(rc io.ReadCloser, size int) *Reader {
	a := NewAhead(2*size, func(buf []byte) (int, error) { return readSome(rc, buf[size:]) })
	// The reader's own buffer, empty, is the one more that circulates.
	return &Reader{rd: rc, size: size, buf: make([]byte, 2*size), r: size, w: size, a: a, async: true}
}

// Buffered returns the number of bytes that can be read without a Read.
func (b *Reader) Buffered() int { return b.w - b.r }

// Peek returns the next n bytes without advancing the reader, reading no
// more of the stream than it takes to hold them. The slice aliases the
// reader's buffer and is valid until the next call that reads. With fewer
// than n bytes it also returns why: the stream's error, or
// bufio.ErrBufferFull when n exceeds the block size.
//
//flowrank:hotpath
func (b *Reader) Peek(n int) ([]byte, error) {
	if uint(n) <= uint(b.w-b.r) && n <= b.size {
		return b.buf[b.r : b.r+n], nil
	}
	return b.peekSlow(n)
}

func (b *Reader) peekSlow(n int) ([]byte, error) {
	if n < 0 {
		return nil, bufio.ErrNegativeCount
	}
	for b.w-b.r < n && b.w-b.r < b.size && b.err == nil {
		b.fill()
	}
	avail := b.w - b.r
	if n > b.size {
		if avail > b.size {
			avail = b.size
		}
		return b.buf[b.r : b.r+avail], bufio.ErrBufferFull
	}
	if avail < n {
		return b.buf[b.r:b.w], b.readErr()
	}
	return b.buf[b.r : b.r+n], nil
}

// Discard skips the next n bytes and returns how many it skipped, with
// the reason when that is fewer than n.
//
//flowrank:hotpath
func (b *Reader) Discard(n int) (int, error) {
	if uint(n) <= uint(b.w-b.r) {
		b.r += n
		return n, nil
	}
	return b.discardSlow(n)
}

func (b *Reader) discardSlow(n int) (int, error) {
	if n < 0 {
		return 0, bufio.ErrNegativeCount
	}
	remain := n
	for {
		if b.r == b.w {
			b.fill()
		}
		skip := b.w - b.r
		if skip > remain {
			skip = remain
		}
		b.r += skip
		remain -= skip
		if remain == 0 {
			return n, nil
		}
		if b.err != nil {
			return n - remain, b.readErr()
		}
	}
}

// ReadByte returns the next byte.
//
//flowrank:hotpath
func (b *Reader) ReadByte() (byte, error) {
	for b.r == b.w {
		if b.err != nil {
			return 0, b.readErr()
		}
		b.fill()
	}
	c := b.buf[b.r]
	b.r++
	return c, nil
}

// Read copies buffered bytes into p, reading the stream first only when
// none are buffered. Unlike bufio it has no pass-through for a large p —
// the read-ahead may own the stream — so io.ReadFull over it costs one
// copy per block.
func (b *Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		if b.Buffered() > 0 {
			return 0, nil
		}
		return 0, b.readErr()
	}
	if b.r == b.w {
		if b.err != nil {
			return 0, b.readErr()
		}
		b.fill()
		if b.r == b.w {
			return 0, b.readErr()
		}
	}
	n := copy(p, b.buf[b.r:b.w])
	b.r += n
	return n, nil
}

// readErr reports the pending error once: the call after it reads again,
// which is how a transient error (a timeout) is retried.
func (b *Reader) readErr() error {
	err := b.err
	b.err = nil
	return err
}

// fill makes the bytes of one more Read available behind the unread ones,
// or sets b.err. Its callers hold less than a block unread and no error.
func (b *Reader) fill() {
	if b.async && b.swap() {
		return
	}
	if b.r == b.w || b.w == len(b.buf) {
		// Out of room, inside a record unless empty: the unread tail moves
		// to the front and the Read fills what is behind it.
		b.w = copy(b.buf, b.buf[b.r:b.w])
		b.r = 0
	}
	n, err := readSome(b.rd, b.buf[b.w:])
	b.w += n
	b.err = err
}

// readSome is one Read as the decoders want it: an empty successful Read
// is retried, a bounded number of times.
func readSome(rd io.Reader, p []byte) (int, error) {
	for i := 0; i < maxEmptyReads; i++ {
		n, err := rd.Read(p)
		if n < 0 || n > len(p) {
			panic("blockio: reader returned an impossible count from Read")
		}
		if n > 0 || err != nil {
			return n, err
		}
	}
	return 0, io.ErrNoProgress
}

// swap replaces the current buffer by the next one the goroutine filled,
// carrying the unread tail into its headroom, and gives the old one back.
// It returns false once the goroutine has exited and its blocks are used
// up — the last of them carried the error that ended it — so that fill
// retries the Read synchronously; unless Close ended it, which fails the
// read instead of resuming a stream the goroutine may have read past.
//
//flowrank:hotpath
func (b *Reader) swap() bool {
	blk, ok := b.a.Next()
	if !ok {
		b.async = false
		if b.a.Stopped() {
			b.err = errClosed
			return true
		}
		return false
	}
	b.r = b.size - copy(blk.Buf[b.size-(b.w-b.r):b.size], b.buf[b.r:b.w])
	b.w = b.size + blk.N
	b.err = blk.Err
	b.a.Free(b.buf)
	b.buf = blk.Buf
	return true
}

// Close closes the underlying reader when it is an io.Closer — which is
// what interrupts a Read that blocks — and then, on a reader from
// NewReadAhead, stops the goroutine and returns once it has exited; a
// read waiting for it fails with an error matching os.ErrClosed. Close
// may be called from another goroutine than the one reading.
func (b *Reader) Close() error {
	var err error
	if c, ok := b.rd.(io.Closer); ok {
		err = c.Close()
	}
	if b.a != nil {
		b.a.Stop()
	}
	return err
}

// Batch is one fill's outcome on its way from the goroutine to the
// consumer: the buffer, how many of its elements the fill produced, and
// the error that ended the fill, if one did.
type Batch[T any] struct {
	Buf []T
	N   int
	Err error
}

// Ahead is the one read-ahead protocol, over buffers of any element: a
// goroutine takes a free buffer, fills it and hands it over in stream
// order, until a fill fails or Stop says stop; the consumer takes filled
// buffers with Next and gives each back with Free once it is done with
// it. Both queues have room for every buffer, so neither side ever blocks
// on a send: the consumer parks only on an empty ready, the goroutine only
// on an empty free.
type Ahead[T any] struct {
	once  sync.Once
	stop  chan struct{} // closed by Stop, once
	done  chan struct{} // closed when the goroutine has exited
	ready chan Batch[T] // filled buffers in stream order; closed with done
	free  chan []T
}

// NewAhead starts the goroutine with Depth buffers of n elements; the
// consumer may hold one more of its own, which Free adds to them. fill
// fills one buffer and says how far; the goroutine exits after the first
// fill that fails. The caller must Stop it.
func NewAhead[T any](n int, fill func([]T) (int, error)) *Ahead[T] {
	a := &Ahead[T]{
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		ready: make(chan Batch[T], Depth+1),
		free:  make(chan []T, Depth+1),
	}
	for i := 0; i < Depth; i++ {
		a.free <- make([]T, n)
	}
	go a.loop(fill)
	return a
}

// Next waits for the next filled buffer. It returns false once the
// goroutine has exited and its buffers are all taken: the last of them
// carried the error that ended it, unless Stop did (Stopped).
//
//flowrank:hotpath
func (a *Ahead[T]) Next() (Batch[T], bool) {
	b, ok := <-a.ready
	return b, ok
}

// Free gives a buffer the consumer is done with to the goroutine.
//
//flowrank:hotpath
func (a *Ahead[T]) Free(buf []T) {
	a.free <- buf // never blocks: free has room for every buffer
}

// Stopped reports whether Stop has been called.
func (a *Ahead[T]) Stopped() bool {
	select {
	case <-a.stop:
		return true
	default:
		return false
	}
}

// Stop tells the goroutine to stop and returns once it has exited. A fill
// blocked in a read does not see it: the owner closes the underlying file
// first, so that the read returns. Stop may be called more than once and
// from another goroutine than the consumer.
func (a *Ahead[T]) Stop() {
	a.once.Do(func() { close(a.stop) })
	<-a.done
}

// loop is the goroutine: fill a free buffer and hand it over, until a fill
// fails or Stop says stop.
//
//flowrank:hotpath
func (a *Ahead[T]) loop(fill func([]T) (int, error)) {
	defer close(a.done)
	defer close(a.ready)
	for {
		var buf []T
		select {
		case buf = <-a.free:
		case <-a.stop:
			return
		}
		n, err := fill(buf)
		a.ready <- Batch[T]{buf, n, err}
		if err != nil {
			return
		}
	}
}

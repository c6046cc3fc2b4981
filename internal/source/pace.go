package source

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"flowrank/internal/packet"
)

// Paced throttles a source to replay at a multiple of the trace's own
// line rate: packet timestamps are mapped onto the wall clock so that a
// packet carrying trace time t is delivered no earlier than
// start + (t - t0)/speed. Speed 1 replays at line rate, 2 at double
// speed, 0.5 at half. Sources that are already real-time (live capture)
// need no pacing.
type Paced struct {
	src   PacketSource
	speed float64

	// now and sleep are the clock; tests substitute them. A nil sleep
	// (the default) waits on a timer that Close interrupts, so a daemon
	// draining a slow-paced replay is not held for the inter-packet gap.
	now   func() time.Time
	sleep func(time.Duration)

	done chan struct{}
	once sync.Once

	started bool
	start   time.Time
	base    float64
}

// Pace wraps src with line-rate pacing at the given speed multiplier.
// It panics if speed is not positive and finite — an unpaced replay is
// expressed by not wrapping, not by a magic speed value.
func Pace(src PacketSource, speed float64) *Paced {
	if !(speed > 0) || math.IsInf(speed, 0) {
		panic(fmt.Sprintf("source: pace speed %g must be positive and finite", speed))
	}
	return &Paced{src: src, speed: speed, now: time.Now, done: make(chan struct{})}
}

// NextBlock reads one packet from the wrapped source into buf, sleeping
// until its scheduled wall-clock delivery time: each packet waits for its
// own. The first packet anchors the schedule and is delivered immediately.
//
//flowrank:hotpath
func (p *Paced) NextBlock(buf []packet.Packet) (int, error) {
	if _, err := p.src.NextBlock(buf[:1]); err != nil {
		return 0, err
	}
	if !p.started {
		p.started = true
		p.start = p.now()
		p.base = buf[0].Time
		return 1, nil
	}
	target := p.start.Add(time.Duration((buf[0].Time - p.base) / p.speed * float64(time.Second)))
	if d := target.Sub(p.now()); d > 0 {
		if err := p.wait(d); err != nil {
			return 0, err
		}
	}
	return 1, nil
}

// wait blocks for d unless Close interrupts it first.
func (p *Paced) wait(d time.Duration) error {
	if p.sleep != nil { // deterministic test clock
		p.sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-p.done:
		return fmt.Errorf("source: paced wait interrupted: %w", ErrClosedSource)
	}
}

// Close closes the wrapped source and wakes a read sleeping toward its
// delivery time.
func (p *Paced) Close() error {
	p.once.Do(func() { close(p.done) })
	return p.src.Close()
}

// Loop replays a reopenable source indefinitely: every time the inner
// source reaches EOF it is closed and reopened, and the next cycle's
// timestamps are shifted past the last emitted one so the stream stays
// non-decreasing — a finite trace becomes an endless daemon workload.
type Loop struct {
	open func() (PacketSource, error)
	gap  float64

	// mu guards cur and closed against the one legal cross-goroutine
	// call, Close during a NextBlock. It is taken at a cycle boundary (open,
	// retire) and in Close, never per packet.
	mu     sync.Mutex
	cur    PacketSource // the open inner source, nil between cycles and after Close
	closed bool

	// The rest belongs to the single reader; Close touches none of it.
	// rd is the reader's own reference to cur, so a read takes no lock: a
	// Close in between closes the inner source, whose own read then
	// fails.
	rd     PacketSource
	offset float64
	last   float64
	n      int64
	// A block that carried a packet timed before its predecessor is cut
	// there: rewound is the error, reported after the packets before it,
	// and held the packets after it, unshifted, read before the inner
	// source again.
	rewound error
	held    []packet.Packet
}

// NewLoop returns a looping source. open must return a fresh source over
// the same trace each call; gap is the quiet time inserted between the
// end of one cycle and the start of the next (it must be non-negative —
// use the trace's typical inter-packet spacing, or 0 for back-to-back).
func NewLoop(open func() (PacketSource, error), gap float64) (*Loop, error) {
	if !(gap >= 0) || math.IsInf(gap, 0) {
		return nil, fmt.Errorf("source: loop gap %g must be non-negative and finite", gap)
	}
	return &Loop{open: open, gap: gap}, nil
}

// begin opens the next cycle's inner source, or fails if the loop was
// closed: under mu, so nothing is opened once Close has returned.
func (l *Loop) begin() (PacketSource, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, fmt.Errorf("source: loop read after close: %w", ErrClosedSource)
	}
	src, err := l.open()
	if err != nil {
		return nil, err
	}
	l.cur = src
	return src, nil
}

// retire closes the inner source that just hit EOF (unless Close already
// did) so the next begin starts a fresh cycle.
func (l *Loop) retire(src PacketSource) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == src {
		src.Close()
		l.cur = nil
	}
}

// errLoopRewound reports a packet timed before its predecessor. A cycle
// must not rewind time; this only happens when the underlying trace
// itself is out of order.
func errLoopRewound(t, last float64) error {
	return fmt.Errorf("source: loop time went backwards (%g < %g)", t, last)
}

// NextBlock yields the inner source's next block, shifted into the
// current cycle, restarting the trace at EOF. An empty cycle (a trace with
// no packets) returns EOF instead of spinning. After Close it fails with
// an error matching ErrClosedSource — the inner source's own once a cycle
// is open.
//
//flowrank:hotpath
func (l *Loop) NextBlock(buf []packet.Packet) (int, error) {
	if err := l.rewound; err != nil {
		l.rewound = nil
		return 0, err
	}
	if len(l.held) > 0 {
		n := copy(buf, l.held)
		l.held = l.held[n:]
		return l.shift(buf[:n])
	}
	for {
		if l.rd == nil {
			src, err := l.begin()
			if err != nil {
				return 0, err
			}
			l.rd = src
		}
		n, err := l.rd.NextBlock(buf)
		if err == nil {
			return l.shift(buf[:n])
		}
		if !errors.Is(err, io.EOF) {
			return 0, err
		}
		if l.n == 0 {
			return 0, io.EOF
		}
		l.retire(l.rd)
		l.rd = nil
		l.offset = l.last + l.gap
		l.n = 0
	}
}

// shift moves a block of the inner source into the current cycle and
// returns how many of its packets to yield: all of them, or those before
// the first that goes back in time, which then fails the next read.
//
//flowrank:hotpath
func (l *Loop) shift(ps []packet.Packet) (int, error) {
	last := l.last
	for i := range ps {
		t := ps[i].Time + l.offset
		if t < last {
			return l.cut(ps, i, errLoopRewound(t, last))
		}
		ps[i].Time = t
		last = t
	}
	l.last = last
	l.n += int64(len(ps))
	return len(ps), nil
}

// cut ends a block at ps[i], which went back in time with err: the packets
// before it are yielded, then err, then the packets after it.
func (l *Loop) cut(ps []packet.Packet, i int, err error) (int, error) {
	l.held = append(slices.Clone(ps[i+1:]), l.held...)
	if i == 0 {
		return 0, err
	}
	l.last = ps[i-1].Time
	l.n += int64(i)
	l.rewound = err
	return i, nil
}

// Close closes the current inner source — unblocking a pending read —
// and stops the loop.
func (l *Loop) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.cur != nil {
		err := l.cur.Close()
		l.cur = nil
		return err
	}
	return nil
}

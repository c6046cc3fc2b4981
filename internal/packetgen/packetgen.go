// Package packetgen turns flow-level records into packet-level behaviour
// the way the paper does in §8.1: each flow's packets are placed
// independently and uniformly over the flow's lifetime ("for long flows
// this is equivalent to saying that packets are the realization of a
// homogeneous Poisson process").
//
// Two equivalent views are provided:
//
//   - Stream emits the full time-ordered packet trace, for consumers that
//     need real packets (pcap export, the flowtable path, NetFlow
//     emission). It merges the active flows one time window at a time: a
//     producer goroutine generates a window's packets flow by flow, each
//     flow from its own inline PCG stream, and radix-sorts them on time
//     while the caller's goroutine hands the previous window to the
//     callback.
//   - BinCounts computes each flow's packet count per measurement bin
//     directly — a multinomial split over the bin overlap fractions,
//     which is distributionally identical to binning the streamed
//     packets and orders of magnitude cheaper. The trace-driven
//     experiments run on this fast path; TestStreamMatchesBinCounts
//     cross-validates the two.
package packetgen

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
	"flowrank/internal/randx"
)

// Stream generates the packets of records (any order) and delivers them to
// fn in global time order. Packet timestamps are reproducible functions of
// (seed, record index): the interleaving does not perturb per-flow
// randomness. fn returning an error aborts the stream, and Stream returns
// that error unchanged. Every record must pass flow.Record.Validate;
// otherwise Stream returns an error naming the first bad record before it
// emits any packet.
//
// Packet sizes split the record's byte count evenly, with the remainder on
// the first packet, so per-flow byte totals are preserved exactly.
//
// Flows are admitted in order of start time, then record index. Packets
// with equal timestamps leave in admission order, and a flow's own
// packets in their own order.
//
// The merge works one time window at a time, each sized to hold about
// windowPackets packets. A producer goroutine walks the active flows in
// admission order, appends every packet that falls before the window's
// end, and sorts the window stably by time with an LSD radix sort, while
// the caller's goroutine hands the previous window to fn. fn runs only on
// Stream's calling goroutine, in order; Stream returns only after the
// producer has exited. Memory is the active flows' states plus two
// windows, about 16 MB at 2^18 packets per window. A packet costs a
// sequential append, a few radix passes and one draw from its flow's
// inline PCG stream.
func Stream(records []flow.Record, seed uint64, fn func(packet.Packet) error) error {
	order := make([]int, len(records))
	for i := range order {
		if err := records[i].Validate(); err != nil {
			return fmt.Errorf("packetgen: record %d: %w", i, err)
		}
		order[i] = i
	}
	if len(records) == 0 {
		return nil
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(records[a].Start, records[b].Start), cmp.Compare(a, b))
	})
	m := &merge{records: records, order: order, base: randx.New(seed), lo: records[order[0]].Start}
	// The first window ends at the start of the flow that brings the
	// packets of the flows admitted so far to windowPackets: however the
	// packet rate ramps up, it holds about that many at most.
	for n, i := 0, 0; i < len(order) && n < windowPackets; i++ {
		n += records[order[i]].Packets
		m.span = records[order[i]].Start - m.lo
	}

	// Two windows circulate: the producer fills one while fn drains the
	// other. free holds both, so handing one back never blocks.
	full := make(chan *window)
	free := make(chan *window, 2)
	free <- new(window)
	free <- new(window)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer close(full)
		m.run(free, full, stop)
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for w := range full {
		for _, e := range w.events {
			r := &w.refs[e.ref]
			if err := fn(packet.Packet{Time: e.t, Key: r.key, Size: r.size}); err != nil {
				return err
			}
		}
		free <- w
	}
	return nil
}

// windowPackets is the number of packets a merge window aims to hold. It
// is a variable only so tests can lower it and make a trace cross many
// windows.
var windowPackets = 1 << 18

// A window is one time window's packets, sorted by time: each event names
// the ref that holds its packet's key and size. A flow adds one ref per
// window it emits in, and a second one when its first packet's size
// differs from the rest.
type window struct {
	events []event
	refs   []packetRef
}

type event struct {
	t   float64
	ref uint32
}

type packetRef struct {
	key  flow.Key
	size int
}

// merge is Stream's producer state: the flows still to admit, the active
// ones, and where the next window starts.
type merge struct {
	records []flow.Record
	order   []int // records in admission order
	next    int   // order[next] is the next flow to admit
	base    *randx.RNG
	active  []flowState // admitted flows with packets left, in admission order
	// lo is the earliest time a packet not yet emitted can have (the
	// earliest pending packet or admission), span the next window's length.
	lo, span float64
	spare    []event // the radix sort's other buffer
	counts   radixCounts
}

// run fills windows from free and sends them on full until every flow
// has emitted all its packets or stop is closed.
func (m *merge) run(free <-chan *window, full chan<- *window, stop <-chan struct{}) {
	for m.next < len(m.order) || len(m.active) > 0 {
		var w *window
		select {
		case w = <-free:
		case <-stop:
			return
		}
		m.fill(w)
		select {
		case full <- w:
		case <-stop:
			return
		}
	}
}

// fill makes w the next window: every packet in [m.lo, end), sorted by
// time. The window ends span after lo, or just past lo when that rounds
// to lo, so every window emits a packet or admits a flow; the next span
// aims at windowPackets packets and at most doubles.
func (m *merge) fill(w *window) {
	w.events, w.refs = w.events[:0], w.refs[:0]
	end := m.lo + m.span
	if !(end > m.lo) {
		end = math.Nextafter(m.lo, math.Inf(1))
	}
	lo := math.Inf(1)
	kept := 0
	for i := range m.active {
		st := &m.active[i]
		st.emit(w, end)
		if st.left > 0 {
			lo = min(lo, st.t)
			if kept != i {
				m.active[kept] = *st
			}
			kept++
		}
	}
	m.active = m.active[:kept]
	for ; m.next < len(m.order); m.next++ {
		idx := m.order[m.next]
		if m.records[idx].Start >= end {
			lo = min(lo, m.records[idx].Start)
			break
		}
		m.active = append(m.active, flowState{})
		st := &m.active[len(m.active)-1]
		st.admit(m.records[idx], m.base.DerivePCG(uint64(idx)+0x51ed270b))
		st.emit(w, end)
		if st.left > 0 {
			lo = min(lo, st.t)
		} else {
			m.active = m.active[:len(m.active)-1]
		}
	}
	w.events, m.spare = m.counts.sortByTime(w.events, m.spare)

	span := end - m.lo
	m.span = 2 * span
	if n := len(w.events); 2*n > windowPackets {
		m.span = span * float64(windowPackets) / float64(n)
	}
	m.lo = lo
}

// flowState is one active flow inside the merge: the record fields the
// merge reads per packet, both packet sizes, and the flow's stream. Sorted
// uniform placement is generated incrementally with the order-statistics
// recurrence U(k) = 1 - (1 - U(k-1)) * u^(1/(S-k+1)), avoiding per-flow
// buffers.
type flowState struct {
	g               randx.PCG
	start, duration float64
	lastU           float64
	t               float64 // the pending packet's time
	key             flow.Key
	left            int // packets not yet emitted, the pending one included
	size            int // wire size of the pending packet
	restSize        int // wire size of every packet after the first
}

// admit starts rec in st, drawing from g, and places its first packet.
func (st *flowState) admit(rec flow.Record, g randx.PCG) {
	per := rec.Bytes / int64(rec.Packets)
	*st = flowState{
		g: g, start: rec.Start, duration: rec.Duration, key: rec.Key, left: rec.Packets,
		size: int(per + rec.Bytes%int64(rec.Packets)), restSize: int(per),
	}
	st.t = st.nextTime()
}

// emit appends st's packets before end to w, in order, and leaves st at
// its first packet at or after end (or with none left).
func (st *flowState) emit(w *window, end float64) {
	ref, size := 0, -1
	for st.t < end {
		if st.size != size {
			ref, size = len(w.refs), st.size
			w.refs = append(w.refs, packetRef{key: st.key, size: size})
		}
		w.events = append(w.events, event{t: st.t, ref: uint32(ref)})
		if st.left--; st.left == 0 {
			return
		}
		st.size = st.restSize
		st.t = st.nextTime()
	}
}

// nextTime advances the sorted-uniform recurrence to the pending packet's
// order statistic in [lastU, 1] and returns that packet's time.
func (st *flowState) nextTime() float64 {
	u := st.g.Float64()
	st.lastU = 1 - (1-st.lastU)*math.Pow(1-u, 1/float64(st.left))
	return st.start + st.lastU*st.duration
}

const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
	// The sort keys have 63 bits: timeKey clears the sign.
	radixDigits = (63 + radixBits - 1) / radixBits
)

// radixCounts is the radix sort's histogram of every digit.
type radixCounts [radixDigits][1 << radixBits]uint32

// timeKey orders packet times by their bits: a valid record's packets
// have finite times ≥ 0, whose IEEE 754 bits order as the numbers do once
// the sign of a -0 is cleared.
func timeKey(t float64) uint64 { return math.Float64bits(t) &^ (1 << 63) }

// sortByTime sorts ev stably by time with an LSD radix sort over the
// radixBits-bit digits of timeKey, skipping each digit every event
// shares. It scatters between ev and tmp, grown as needed, and returns
// the sorted events and the other buffer.
func (c *radixCounts) sortByTime(ev, tmp []event) (sorted, spare []event) {
	if len(ev) < 2 {
		return ev, tmp
	}
	*c = radixCounts{}
	// One pass counts every digit; unrolled, as a loop over the six
	// digits makes the whole sort half as slow again.
	for _, e := range ev {
		k := timeKey(e.t)
		c[0][k&radixMask]++
		c[1][k>>radixBits&radixMask]++
		c[2][k>>(2*radixBits)&radixMask]++
		c[3][k>>(3*radixBits)&radixMask]++
		c[4][k>>(4*radixBits)&radixMask]++
		c[5][k>>(5*radixBits)]++
	}
	tmp = slices.Grow(tmp[:0], len(ev))[:len(ev)]
	first := timeKey(ev[0].t)
	for d := range c {
		shift := uint(d * radixBits)
		pos := &c[d]
		if pos[first>>shift&radixMask] == uint32(len(ev)) {
			continue
		}
		var sum uint32
		for b, n := range pos {
			pos[b], sum = sum, sum+n
		}
		for _, e := range ev {
			b := timeKey(e.t) >> shift & radixMask
			tmp[pos[b]] = e
			pos[b]++
		}
		ev, tmp = tmp, ev
	}
	return ev, tmp
}

// BinCount is one flow's packet count within one measurement bin.
type BinCount struct {
	Rec     int // index into the records slice
	Bin     int
	Packets int
}

// BinCounts draws, for every record, its packet count in each bin of width
// binSeconds covering [0, horizon). The split across bins is multinomial
// with probabilities equal to the overlap fraction of the flow's lifetime
// with each bin — exactly the distribution induced by uniform placement.
// Packets falling past the horizon are dropped, mirroring a monitor that
// stops at the end of the measurement period.
//
// Counts are streamed to fn in record order. The caller's RNG g makes the
// placement realization reproducible; the paper fixes one packet trace
// and varies only the sampling runs, which corresponds to calling
// BinCounts once and thinning its counts per run.
func BinCounts(records []flow.Record, binSeconds, horizon float64, g *randx.RNG, fn func(BinCount) error) error {
	if binSeconds <= 0 {
		return fmt.Errorf("packetgen: bin width %g must be positive", binSeconds)
	}
	if horizon <= 0 {
		return fmt.Errorf("packetgen: horizon %g must be positive", horizon)
	}
	nBins := int(math.Ceil(horizon / binSeconds))
	probs := make([]float64, 0, 16)
	counts := make([]int, 0, 16)
	for idx, rec := range records {
		if rec.Start >= horizon {
			continue
		}
		firstBin := int(rec.Start / binSeconds)
		end := rec.End()
		lastBin := int(end / binSeconds)
		if lastBin >= nBins {
			lastBin = nBins - 1
		}
		if rec.Duration <= 0 {
			// Degenerate flow: all packets at the start instant.
			if err := fn(BinCount{Rec: idx, Bin: firstBin, Packets: rec.Packets}); err != nil {
				return err
			}
			continue
		}
		probs = probs[:0]
		for b := firstBin; b <= lastBin; b++ {
			lo := math.Max(rec.Start, float64(b)*binSeconds)
			// The final bin may extend past the horizon; the monitor
			// stops there, so cap every bin at the horizon.
			hi := math.Min(end, math.Min(float64(b+1)*binSeconds, horizon))
			frac := (hi - lo) / rec.Duration
			if frac < 0 {
				frac = 0
			}
			probs = append(probs, frac)
		}
		// Probability mass past the horizon (truncated flows) goes to an
		// implicit overflow category by leaving sum(probs) < 1; the
		// multinomial's remainder category absorbs it.
		if end > horizon {
			probs = append(probs, (end-horizon)/rec.Duration)
		}
		counts = g.Multinomial(counts[:0], rec.Packets, probs)
		for i := 0; i <= lastBin-firstBin; i++ {
			if counts[i] == 0 {
				continue
			}
			if err := fn(BinCount{Rec: idx, Bin: firstBin + i, Packets: counts[i]}); err != nil {
				return err
			}
		}
	}
	return nil
}

// NumBins returns the bin count for a horizon and width.
func NumBins(binSeconds, horizon float64) int {
	return int(math.Ceil(horizon / binSeconds))
}

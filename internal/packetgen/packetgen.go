// Package packetgen turns flow-level records into packet-level behaviour
// the way the paper does in §8.1: each flow's packets are placed
// independently and uniformly over the flow's lifetime ("for long flows
// this is equivalent to saying that packets are the realization of a
// homogeneous Poisson process").
//
// Two equivalent views are provided:
//
//   - Stream emits the full time-ordered packet trace through a k-way
//     merge over the active flows, for consumers that need real packets
//     (pcap export, the flowtable path, NetFlow emission). The merge is a
//     typed binary heap over one reused slice of flow states, and each
//     flow draws its packet times from its own inline PCG stream.
//   - BinCounts computes each flow's packet count per measurement bin
//     directly — a multinomial split over the bin overlap fractions,
//     which is distributionally identical to binning the streamed
//     packets and orders of magnitude cheaper. The trace-driven
//     experiments run on this fast path; TestStreamMatchesBinCounts
//     cross-validates the two.
package packetgen

import (
	"fmt"
	"math"
	"sort"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
	"flowrank/internal/randx"
)

// Stream generates the packets of records (any order) and delivers them to
// fn in global time order. Packet timestamps are reproducible functions of
// (seed, record index): the interleaving does not perturb per-flow
// randomness. fn returning an error aborts the stream. Every record must
// pass flow.Record.Validate; otherwise Stream returns an error naming the
// first bad record before it emits any packet.
//
// Packet sizes split the record's byte count evenly, with the remainder on
// the first packet, so per-flow byte totals are preserved exactly.
//
// The merge admits flows in start order, each into a slot of one slice of
// flow states (reused once the flow ends), and keeps a binary min-heap of
// (next packet time, slot) items. The heap makes the comparisons and moves
// container/heap would, so packets with equal timestamps leave in
// container/heap's order, which the traces tracegen writes depend on. A
// packet costs one heap fix-up or pop and one draw from its flow's inline
// PCG stream; it reads no record.
func Stream(records []flow.Record, seed uint64, fn func(packet.Packet) error) error {
	base := randx.New(seed)
	// Sort indices by start time so flows enter the merge lazily.
	order := make([]int, len(records))
	for i := range order {
		if err := records[i].Validate(); err != nil {
			return fmt.Errorf("packetgen: record %d: %w", i, err)
		}
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return records[order[a]].Start < records[order[b]].Start })

	var (
		h      = make(mergeHeap, 0, 1024)
		states []flowState
		free   []int
	)
	next := 0
	for next < len(order) || len(h) > 0 {
		// Admit every flow that starts before the earliest pending packet.
		for next < len(order) {
			idx := order[next]
			if len(h) > 0 && records[idx].Start > h[0].t {
				break
			}
			slot := len(states)
			if n := len(free); n > 0 {
				slot, free = free[n-1], free[:n-1]
			} else {
				states = append(states, flowState{})
			}
			t := states[slot].admit(records[idx], base.DerivePCG(uint64(idx)+0x51ed270b))
			h.push(mergeItem{t: t, slot: slot})
			next++
		}
		top := h[0]
		st := &states[top.slot]
		if err := fn(packet.Packet{Time: top.t, Key: st.key, Size: st.size}); err != nil {
			return err
		}
		if st.left--; st.left > 0 {
			st.size = st.restSize
			h.fixRoot(st.nextTime())
		} else {
			h.pop()
			free = append(free, top.slot)
		}
	}
	return nil
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
	key             flow.Key
	left            int // packets not yet emitted, the pending one included
	size            int // wire size of the pending packet
	restSize        int // wire size of every packet after the first
}

// admit starts rec in st, drawing from g, and returns its first packet's
// time.
func (st *flowState) admit(rec flow.Record, g randx.PCG) float64 {
	per := rec.Bytes / int64(rec.Packets)
	*st = flowState{
		g: g, start: rec.Start, duration: rec.Duration, key: rec.Key, left: rec.Packets,
		size: int(per + rec.Bytes%int64(rec.Packets)), restSize: int(per),
	}
	return st.nextTime()
}

// nextTime advances the sorted-uniform recurrence to the pending packet's
// order statistic in [lastU, 1] and returns that packet's time.
func (st *flowState) nextTime() float64 {
	u := st.g.Float64()
	st.lastU = 1 - (1-st.lastU)*math.Pow(1-u, 1/float64(st.left))
	return st.start + st.lastU*st.duration
}

// mergeItem is a heap entry: a flow's pending packet time and its slot in
// the flow states.
type mergeItem struct {
	t    float64
	slot int
}

// mergeHeap is a binary min-heap on t. push, fixRoot and pop compare and
// move items exactly as container/heap's Push, Fix(h, 0) and Pop do, so
// ties break identically.
type mergeHeap []mergeItem

func (h *mergeHeap) push(it mergeItem) {
	*h = append(*h, it)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.t < s[i].t) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = it
}

// fixRoot gives the root item the time t and restores the heap.
func (h mergeHeap) fixRoot(t float64) {
	it := h[0]
	it.t = t
	h.down(it, len(h))
}

func (h *mergeHeap) pop() {
	s := *h
	n := len(s) - 1
	s.down(s[n], n)
	*h = s[:n]
}

// down places it at the root of h[:n] and sifts it down.
func (h mergeHeap) down(it mergeItem, n int) {
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].t < h[j].t {
			j = j2
		}
		if !(h[j].t < it.t) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = it
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

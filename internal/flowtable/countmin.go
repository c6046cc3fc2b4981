package flowtable

import (
	"math"
	"math/bits"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
	"flowrank/internal/randx"
)

// cmDepth is the number of Count-Min rows. With 4 independent rows the
// per-flow error bound below holds with probability >= 1 - 2^-4.
const cmDepth = 4

// cmSeeds perturb the flow hash per row so the rows collide
// independently; odd constants from the splitmix64/PCG family.
var cmSeeds = [cmDepth]uint64{
	0x9e3779b97f4a7c15,
	0xbf58476d1ce4e5b9,
	0x94d049bb133111eb,
	0xd6e8feb86659fd93,
}

// CountMin is a Count-Min sketch (Cormode–Muthukrishnan) paired with a
// top-k heap of tracked flows: the sketch estimates any flow's count in
// O(1) words per row, and the heap keeps identities for the k flows with
// the largest estimates, which is all the ranking pipeline needs.
//
// The sketch never under-estimates. With width w and N accounted
// packets, each tracked estimate exceeds the true count by more than
// 2N/w with probability at most 2^-depth (Markov per row, rows
// independent); ErrorBound reports that 2N/w figure. Unlike
// Space-Saving's deterministic bound it is probabilistic, but it is
// oblivious to adversarial arrival order.
//
// Memory is O(k) flow identities plus the fixed depth x width counter
// array; steady-state Adds allocate nothing.
type CountMin struct {
	slots
	agg   flow.Aggregator
	width uint64  // power of two
	rows  []int64 // cmDepth rows of width counters, one slab
}

// NewCountMin returns a Count-Min summary tracking k flows (k clamped to
// [1, MaxSlots]) over a counter array of width 4k per row (rounded up to
// a power of two), the conventional sizing that keeps 2N/w below N/2k.
func NewCountMin(agg flow.Aggregator, k int) *CountMin {
	sl := newSlots(k)
	width := uint64(1) << bits.Len(uint(4*sl.k-1))
	return &CountMin{slots: sl, agg: agg, width: width, rows: make([]int64, cmDepth*int(width))}
}

// offset returns the index into rows of the row-r counter of a key whose
// FastHash is h — the one formula behind Estimate and the per-packet path.
func (c *CountMin) offset(h uint64, r int) uint64 {
	return uint64(r)*c.width + randx.Mix64(h^cmSeeds[r])&(c.width-1)
}

// Add accounts one packet.
//
//flowrank:hotpath
func (c *CountMin) Add(p packet.Packet) {
	c.AddAggregated(c.agg.Aggregate(p.Key), p.Time, int64(p.Size))
}

// AddAggregated accounts one packet whose key is already aggregated.
//
//flowrank:hotpath
func (c *CountMin) AddAggregated(key flow.Key, time float64, size int64) {
	c.add(key, key.FastHash(), time, size)
}

// add accounts one packet of the flow key, whose FastHash is hash.
//
//flowrank:hotpath
func (c *CountMin) add(key flow.Key, hash uint64, time float64, size int64) {
	c.packets++
	c.bytesT += size
	est := c.bump(hash)
	full := len(c.entries) == c.k
	// A full table whose weakest count est does not beat has nothing to
	// do: the flow is not tracked — a tracked flow's count is at least
	// that minimum, and its estimate only grew since it was stored, by
	// this packet's bump at least — and cannot take a slot over. Such adds
	// skip the index probe.
	if full && est <= c.entries[c.h[0]].Packets {
		return
	}
	if id, ok := c.find(key, hash); ok {
		// The min-over-rows estimate is monotone for a fixed key, so this
		// only moves the tracked count up.
		c.hit(id, time, size).Packets = est
		c.siftDown(c.pos[id])
		return
	}
	if !full {
		c.insert(flatSlot{Key: key, Packets: est, Bytes: size}, time, hash)
		return
	}
	// The estimate beats the weakest tracked one: the flow takes its slot
	// over. Bytes and First restart at the takeover: the sketch holds no
	// identity for the untracked period (documented estimator behaviour,
	// same shape as Space-Saving's inherited-count caveat).
	c.takeover(c.h[0], flatSlot{Key: key, Packets: est, Bytes: size}, time, hash)
}

// bump increments, in every row, the counter of the key whose FastHash
// is h and returns the new min-over-rows estimate.
//
//flowrank:hotpath
func (c *CountMin) bump(h uint64) int64 {
	est := int64(math.MaxInt64)
	for r := 0; r < cmDepth; r++ {
		j := c.offset(h, r)
		v := c.rows[j] + 1
		c.rows[j] = v
		est = min(est, v)
	}
	return est
}

// Estimate returns the sketch's count estimate for an (aggregated) key,
// whether or not the flow is tracked. It never under-estimates.
func (c *CountMin) Estimate(key flow.Key) int64 {
	h := key.FastHash()
	est := int64(math.MaxInt64)
	for r := 0; r < cmDepth; r++ {
		est = min(est, c.rows[c.offset(h, r)])
	}
	return est
}

// ErrorBound returns 2N/w: with probability at least 1 - 2^-depth, a
// tracked flow's estimate exceeds its true count by at most this much.
func (c *CountMin) ErrorBound() int64 {
	return (2*c.packets + int64(c.width) - 1) / int64(c.width)
}

// AddBatch accounts the observations in order, exactly as one
// AddAggregated per observation would, taking each key's hash from the
// observation.
//
//flowrank:hotpath
func (c *CountMin) AddBatch(batch []Observation) {
	for i := range batch {
		c.add(batch[i].Key, batch[i].Hash, batch[i].Time, batch[i].Size)
	}
}

// Reset clears the summary for the next bin, keeping its memory. While
// the table has a free slot every flow an add bumps is tracked (a new
// flow takes the free slot), so a table that never filled has bumped only
// its tracked flows' counters, and Reset zeroes those alone: a quiet bin
// pays for its own flows, not for depth x width counters — nothing at
// all when it accounted no packet. A table that filled clears every row.
func (c *CountMin) Reset() {
	if len(c.entries) < c.k {
		for _, h := range c.hashes {
			for r := 0; r < cmDepth; r++ {
				c.rows[c.offset(h, r)] = 0
			}
		}
	} else {
		clear(c.rows)
	}
	c.reset()
}

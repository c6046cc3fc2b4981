package flowtable

import (
	"math"
	"math/bits"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
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
	// touched absorbs AddBatch's early loads so the compiler keeps them.
	touched uint64
}

// cmOffsets is one key's counter in every row, as indices into rows.
// uint32 holds them: newSlots caps k at MaxSlots, where the slab is
// cmDepth x 4 x MaxSlots = 2^28 counters. It is filled and read element by
// element through a pointer, never copied: a copy is one 16-byte load over
// four 4-byte stores made an instruction earlier, which the store buffer
// cannot forward — that copy was half of AddBatch's own time.
type cmOffsets [cmDepth]uint32

const _ = uint32(cmDepth*4*MaxSlots - 1) // does not compile if MaxSlots outgrows cmOffsets

// NewCountMin returns a Count-Min summary tracking k flows (k clamped to
// [1, MaxSlots]) over a counter array of width 4k per row (rounded up to
// a power of two), the conventional sizing that keeps 2N/w below N/2k.
func NewCountMin(agg flow.Aggregator, k int) *CountMin {
	sl := newSlots(k)
	width := uint64(1) << bits.Len(uint(4*sl.k-1))
	return &CountMin{slots: sl, agg: agg, width: width, rows: make([]int64, cmDepth*int(width))}
}

// offset returns the index into rows of the row-r counter of a key whose
// FastHash is h — the one formula behind Estimate, the per-packet path and
// AddBatch's groups.
func (c *CountMin) offset(h uint64, r int) uint32 {
	return uint32(uint64(r)*c.width + cmMix(h^cmSeeds[r])&(c.width-1))
}

// cmMix finalizes a seeded hash into a row index base (splitmix64
// finalizer).
func cmMix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
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
	h := key.FastHash()
	var o cmOffsets
	for r := range o {
		o[r] = c.offset(h, r)
	}
	c.add(key, h, &o, time, size)
}

// add accounts one packet of the flow key, whose FastHash is hash and
// whose counters are at o.
//
//flowrank:hotpath
func (c *CountMin) add(key flow.Key, hash uint64, o *cmOffsets, time float64, size int64) {
	c.packets++
	c.bytesT += size
	est := c.bump(o)
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

// bump increments the counter at o in every row and returns the new
// min-over-rows estimate.
//
//flowrank:hotpath
func (c *CountMin) bump(o *cmOffsets) int64 {
	est := c.rows[o[0]] + 1
	c.rows[o[0]] = est
	for r := 1; r < cmDepth; r++ {
		v := c.rows[o[r]] + 1
		c.rows[o[r]] = v
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

// Width returns the per-row counter width.
func (c *CountMin) Width() int { return int(c.width) }

// ErrorBound returns 2N/w: with probability at least 1 - 2^-depth, a
// tracked flow's estimate exceeds its true count by at most this much.
func (c *CountMin) ErrorBound() int64 {
	return (2*c.packets + int64(c.width) - 1) / int64(c.width)
}

// AddBatch accounts the observations in order, exactly as one
// AddAggregated per observation would, without hashing: the row offsets
// come from each observation's supplied hash. A packet costs four counter
// updates in four rows plus an index probe, each a likely cache miss that
// AddAggregated takes one after another; here every group of
// flatBatchGroup observations first derives all its offsets and loads
// those counters and index home words together (Flat.AddBatch's idiom),
// then increments and updates the tracked slots in trace order from the
// saved offsets — so a key repeated inside a group still sees its own
// earlier increment.
//
//flowrank:hotpath
func (c *CountMin) AddBatch(batch []Observation) {
	var offs [flatBatchGroup]cmOffsets
	imask := uint64(len(c.index) - 1)
	for len(batch) > 0 {
		g := batch[:min(flatBatchGroup, len(batch))]
		batch = batch[len(g):]
		var touched uint64
		for i := range g {
			h := g[i].Hash
			for r := range offs[i] {
				j := c.offset(h, r)
				offs[i][r] = j
				touched += uint64(c.rows[j])
			}
			touched += c.index[flatHome(h, imask)]
		}
		c.touched += touched
		for i := range g {
			c.add(g[i].Key, g[i].Hash, &offs[i], g[i].Time, g[i].Size)
		}
	}
}

// Reset clears the summary for the next bin, keeping its memory.
func (c *CountMin) Reset() {
	clear(c.rows)
	c.reset()
}

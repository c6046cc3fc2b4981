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
// array; steady-state Adds allocate nothing. No counter exceeds the bin's
// exact packet total, so while that total fits a uint32 the counters are
// uint32 — half the cache footprint of the row slab, which every packet
// touches in four places. The batch that would take the total past it
// widens the counters to int64 for the rest of the bin, and Reset narrows
// them again: one ingest, instantiated for both widths, with the same
// estimates either way.
type CountMin struct {
	slots
	agg   flow.Aggregator
	width uint64 // power of two
	// rows32 and rows64 each hold cmDepth rows of width counters, one slab:
	// rows32 while wide is false, rows64 (allocated at the first widening)
	// from the widening to the next Reset.
	rows32 []uint32
	rows64 []int64
	wide   bool
	// narrowMax is the largest packet total the narrow counters take:
	// math.MaxUint32, lowered by the tests to widen a bin early.
	narrowMax int64
	// touched absorbs AddBatch's early loads so the compiler keeps them.
	touched uint64
}

// cmCounter is the type of a Count-Min counter: narrow, or widened.
type cmCounter interface{ uint32 | int64 }

// cmOffsets is one key's counter in every row, as indices into the row
// slab. uint32 holds them: newSlots caps k at MaxSlots, where the slab is
// cmDepth x 4 x MaxSlots = 2^28 counters. It is filled and read element by
// element through a pointer, never copied: a copy is one 16-byte load over
// four 4-byte stores made an instruction earlier, which the store buffer
// cannot forward — that copy was half of AddBatch's own time.
type cmOffsets [cmDepth]uint32

const _ = uint32(cmDepth*4*MaxSlots - 1) // does not compile if MaxSlots outgrows cmOffsets

// NewCountMin returns a Count-Min summary tracking k flows (k clamped to
// [1, MaxSlots]) over a counter array of width 4k per row (rounded up to
// a power of two), the conventional sizing that keeps 2N/w below N/2k.
func NewCountMin(agg flow.Aggregator, k int) *CountMin { return newCountMin(agg, k, true) }

// newCountMin is NewCountMin, keeping timestamps only when times is set.
func newCountMin(agg flow.Aggregator, k int, times bool) *CountMin {
	sl := newSlots(k, times)
	width := uint64(1) << bits.Len(uint(4*sl.k-1))
	return &CountMin{slots: sl, agg: agg, width: width, rows32: make([]uint32, cmDepth*int(width)), narrowMax: math.MaxUint32}
}

// offset returns the index into the row slab of the row-r counter of a key
// whose FastHash is h — the one formula behind Estimate, the per-packet
// path and AddBatch's groups.
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
	if c.widens(1) {
		cmAdd(c, c.rows64, key, h, &o, time, size)
	} else {
		cmAdd(c, c.rows32, key, h, &o, time, size)
	}
}

// widens reports whether the next n packets are counted in the wide
// counters, widening them first when the narrow ones could not hold the
// total the n packets bring the bin to.
func (c *CountMin) widens(n int) bool {
	if !c.wide && c.packets+int64(n) > c.narrowMax {
		if c.rows64 == nil {
			c.rows64 = make([]int64, len(c.rows32))
		}
		for i, v := range c.rows32 {
			c.rows64[i] = int64(v)
		}
		c.wide = true
	}
	return c.wide
}

// cmAdd accounts one packet of the flow key, whose FastHash is hash and
// whose counters in rows are at o.
//
//flowrank:hotpath
func cmAdd[T cmCounter](c *CountMin, rows []T, key flow.Key, hash uint64, o *cmOffsets, time float64, size int64) {
	c.packets++
	c.bytesT += size
	est := cmBump(rows, o)
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

// cmBump increments the counter at o in every row and returns the new
// min-over-rows estimate.
//
//flowrank:hotpath
func cmBump[T cmCounter](rows []T, o *cmOffsets) int64 {
	est := rows[o[0]] + 1
	rows[o[0]] = est
	for r := 1; r < cmDepth; r++ {
		v := rows[o[r]] + 1
		rows[o[r]] = v
		est = min(est, v)
	}
	return int64(est)
}

// Estimate returns the sketch's count estimate for an (aggregated) key,
// whether or not the flow is tracked. It never under-estimates.
func (c *CountMin) Estimate(key flow.Key) int64 {
	h := key.FastHash()
	est := int64(math.MaxInt64)
	for r := 0; r < cmDepth; r++ {
		j := c.offset(h, r)
		v := int64(c.rows32[j])
		if c.wide {
			v = c.rows64[j]
		}
		est = min(est, v)
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
// come from each observation's supplied hash.
//
//flowrank:hotpath
func (c *CountMin) AddBatch(batch []Observation) {
	if c.widens(len(batch)) {
		cmAddBatch(c, c.rows64, batch)
	} else {
		cmAddBatch(c, c.rows32, batch)
	}
}

// cmAddBatch is AddBatch over the counters in rows. A packet costs four
// counter updates in four rows plus an index probe, each a likely cache
// miss that AddAggregated takes one after another; here every group of
// flatBatchGroup observations first derives all its offsets and loads
// those counters and index home words together (Flat.AddBatch's idiom),
// then increments and updates the tracked slots in trace order from the
// saved offsets — so a key repeated inside a group still sees its own
// earlier increment.
//
//flowrank:hotpath
func cmAddBatch[T cmCounter](c *CountMin, rows []T, batch []Observation) {
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
				touched += uint64(rows[j])
			}
			touched += c.index[flatHome(h, imask)]
		}
		c.touched += touched
		for i := range g {
			cmAdd(c, rows, g[i].Key, g[i].Hash, &offs[i], g[i].Time, g[i].Size)
		}
	}
}

// Reset clears the summary for the next bin, keeping its memory; the
// counters are narrow again.
func (c *CountMin) Reset() {
	clear(c.rows32)
	c.wide = false
	c.reset()
}

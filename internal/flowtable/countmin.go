package flowtable

import (
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
	agg     flow.Aggregator
	k       int
	width   uint64  // power of two
	rows    []int64 // cmDepth rows of width counters, one slab
	entries []Entry // tracked flows, len <= k
	h       []int32 // min-heap of tracked ids ordered by estimate
	pos     []int32 // tracked id -> heap index
	index   map[flow.Key]int32
	packets int64
	bytesT  int64
}

// NewCountMin returns a Count-Min summary tracking k flows over a
// counter array of width 4k per row (rounded up to a power of two), the
// conventional sizing that keeps 2N/w below N/2k.
func NewCountMin(agg flow.Aggregator, k int) *CountMin {
	if k < 1 {
		k = 1
	}
	width := uint64(1) << bits.Len(uint(4*k-1))
	return &CountMin{
		agg:     agg,
		k:       k,
		width:   width,
		rows:    make([]int64, cmDepth*int(width)),
		entries: make([]Entry, 0, k),
		h:       make([]int32, 0, k),
		pos:     make([]int32, 0, k),
		index:   make(map[flow.Key]int32, k),
	}
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
	c.packets++
	c.bytesT += size
	est := c.bump(key)
	if id, ok := c.index[key]; ok {
		e := &c.entries[id]
		// The min-over-rows estimate is monotone for a fixed key, so this
		// only moves the tracked count up.
		e.Packets = est
		e.Bytes += size
		e.Last = time
		c.siftDown(c.pos[id])
		return
	}
	if len(c.entries) < c.k {
		id := int32(len(c.entries))
		c.entries = append(c.entries, Entry{Key: key, Packets: est, Bytes: size, First: time, Last: time})
		c.index[key] = id
		c.pos = append(c.pos, int32(len(c.h)))
		c.h = append(c.h, id)
		c.siftUp(int32(len(c.h) - 1))
		return
	}
	// Track the flow only if its estimate beats the weakest tracked one.
	// Bytes and First restart at the takeover: the sketch holds no
	// identity for the untracked period (documented estimator behaviour,
	// same shape as Space-Saving's inherited-count caveat).
	id := c.h[0]
	e := &c.entries[id]
	if est <= e.Packets {
		return
	}
	delete(c.index, e.Key)
	*e = Entry{Key: key, Packets: est, Bytes: size, First: time, Last: time}
	c.index[key] = id
	c.siftDown(c.pos[id])
}

// bump increments the key's counter in every row and returns the new
// min-over-rows estimate.
//
//flowrank:hotpath
func (c *CountMin) bump(key flow.Key) int64 {
	h := key.FastHash()
	mask := c.width - 1
	est := int64(1<<63 - 1)
	for r := 0; r < cmDepth; r++ {
		i := uint64(r)*c.width + cmMix(h^cmSeeds[r])&mask
		c.rows[i]++
		if c.rows[i] < est {
			est = c.rows[i]
		}
	}
	return est
}

// Estimate returns the sketch's count estimate for an (aggregated) key,
// whether or not the flow is tracked. It never under-estimates.
func (c *CountMin) Estimate(key flow.Key) int64 {
	h := key.FastHash()
	mask := c.width - 1
	est := int64(1<<63 - 1)
	for r := 0; r < cmDepth; r++ {
		v := c.rows[uint64(r)*c.width+cmMix(h^cmSeeds[r])&mask]
		if v < est {
			est = v
		}
	}
	return est
}

// siftUp restores the heap above index i.
func (c *CountMin) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if c.entries[c.h[parent]].Packets <= c.entries[c.h[i]].Packets {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap below index i.
func (c *CountMin) siftDown(i int32) {
	n := int32(len(c.h))
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && c.entries[c.h[l]].Packets < c.entries[c.h[min]].Packets {
			min = l
		}
		if r < n && c.entries[c.h[r]].Packets < c.entries[c.h[min]].Packets {
			min = r
		}
		if min == i {
			return
		}
		c.swap(i, min)
		i = min
	}
}

func (c *CountMin) swap(i, j int32) {
	c.h[i], c.h[j] = c.h[j], c.h[i]
	c.pos[c.h[i]] = i
	c.pos[c.h[j]] = j
}

// Len returns the number of tracked flows (at most k).
func (c *CountMin) Len() int { return len(c.entries) }

// TotalPackets returns the exact number of accounted packets.
func (c *CountMin) TotalPackets() int64 { return c.packets }

// TotalBytes returns the exact number of accounted bytes.
func (c *CountMin) TotalBytes() int64 { return c.bytesT }

// Width returns the per-row counter width.
func (c *CountMin) Width() int { return int(c.width) }

// ErrorBound returns 2N/w: with probability at least 1 - 2^-depth, a
// tracked flow's estimate exceeds its true count by at most this much.
func (c *CountMin) ErrorBound() int64 {
	return (2*c.packets + int64(c.width) - 1) / int64(c.width)
}

// Lookup returns the tracked entry for an (aggregated) key, if tracked.
func (c *CountMin) Lookup(key flow.Key) (Entry, bool) {
	id, ok := c.index[key]
	if !ok {
		return Entry{}, false
	}
	return c.entries[id], true
}

// AddBatch accounts the observations in order.
func (c *CountMin) AddBatch(batch []Observation) {
	for i := range batch {
		c.AddAggregated(batch[i].Key, batch[i].Time, batch[i].Size)
	}
}

// AppendAll appends the tracked flows to dst in slot order.
func (c *CountMin) AppendAll(dst []Entry) []Entry { return append(dst, c.entries...) }

// AppendEntries appends the tracked flows to dst in the canonical
// ranking order (by estimate) and returns it.
func (c *CountMin) AppendEntries(dst []Entry) []Entry { return appendSorted(c, dst) }

// AppendTop appends the k highest-estimated flows in ranking order.
func (c *CountMin) AppendTop(dst []Entry, k int) []Entry { return appendTop(c, dst, k) }

// AppendCounts adds every tracked flow's estimated packet count to dst.
func (c *CountMin) AppendCounts(dst map[flow.Key]int64) map[flow.Key]int64 {
	if dst == nil {
		dst = make(map[flow.Key]int64, len(c.entries))
	}
	for i := range c.entries {
		dst[c.entries[i].Key] = c.entries[i].Packets
	}
	return dst
}

// Reset clears the summary for the next bin, keeping its memory.
func (c *CountMin) Reset() {
	clear(c.rows)
	c.entries = c.entries[:0]
	c.h = c.h[:0]
	c.pos = c.pos[:0]
	clear(c.index)
	c.packets, c.bytesT = 0, 0
}

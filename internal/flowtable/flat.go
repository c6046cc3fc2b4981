package flowtable

import (
	"math"
	"math/bits"
	"slices"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
)

// Flat is the exact flow table of the packet hot path: open addressing
// over flat slot arrays, the map-table idiom of internal/core's kernel
// memo scaled up to full flow entries. A pre-sized Flat accounts a packet
// with one hash, a short linear probe and three adds — no map header, no
// per-flow pointer, no allocation — so a shard ingesting millions of
// packets per second allocates nothing after warm-up and gives the GC no
// per-flow pointers to scan.
//
// Occupancy is tracked in a byte-per-slot tag array (the top bits of the
// probe hash, never 0) rather than the full hash: at a million flows the
// tag array is ~2 MB and stays cache-resident, so a probe costs one tag
// read plus at most one slot-line miss, where a full-hash array would
// take a second DRAM miss per packet. A tag match that is not a key
// match (about 1 in 128 probes) just continues the probe.
//
// A slot holds a flow's key and counts, 32 bytes: two to a cache line,
// and none straddles two. The timestamps of Entry live in a side array
// that only a timestamp-keeping table has (NewFlat): the stream engine's
// original table, an evaluation oracle nothing reads a time from, keeps
// counts only (Spec.NewCounts), and its entries carry zero First and
// Last. Growth rehashes the slots and, when kept, the timestamps.
//
// Flat is bit-compatible with Table: both produce identical Entries, Top,
// AppendCounts and totals for the same input (the differential tests in
// flat_test.go pin this under random workloads), so the map table remains
// the reference implementation while Flat carries production traffic.
//
// A table keeps its slot arrays from bin to bin through Reset; only
// growth allocates. The arrays are sized by the busiest bin the table has
// held, so a bitmap beside the tags marks each 64-tag line (one cache
// line) that holds an occupied slot, and a bin close — AppendTopTies,
// AppendAll, AppendCounts — and a Reset visit only the marked lines: a
// quiet bin after a busy one costs its own flows plus one bit per line,
// not a scan of the whole tag array. The scan keeps ascending slot order,
// so every list and count order it produces is the one a full scan of the
// same slots gives.
type Flat struct {
	agg flow.Aggregator
	// tags[i] != 0 marks slot i occupied with the hash tag of its key;
	// slots[i] is the slot's counts and times[i] its timestamps (nil when
	// the table keeps none), valid only when marked. Bit j%64 of lines[j/64]
	// is set when tags[j*flatLine:(j+1)*flatLine] holds a non-zero tag.
	tags    []uint8
	lines   []uint64
	slots   []flatSlot
	times   []flatTimes
	n       int
	packets int64
	bytesT  int64
	// touched absorbs AddBatch's early loads so the compiler keeps them.
	touched uint64
}

// flatSlot is one flow's key and counts: 32 bytes.
type flatSlot struct {
	Key            flow.Key
	Packets, Bytes int64
}

// flatTimes is one flow's first and most recent packet time.
type flatTimes struct{ First, Last float64 }

// flatMinSlots is the smallest slot-array size; large enough that tiny
// tables do not grow immediately, small enough to stay cache-resident.
const flatMinSlots = 64

// flatLine is the number of tags one bit of Flat.lines covers: a cache
// line of tags. flatMinSlots is a multiple of it.
const flatLine = 64

// NewFlat returns an empty open-addressing table classifying packets
// under agg and keeping each flow's first and last packet time, pre-sized
// to hold sizeHint flows without growing (0 picks a small default). The
// table grows transparently past the hint; only the pre-sized capacity is
// allocation-free.
func NewFlat(agg flow.Aggregator, sizeHint int) *Flat { return newFlat(agg, sizeHint, true) }

// newFlat is NewFlat, keeping timestamps only when times is set.
func newFlat(agg flow.Aggregator, sizeHint int, times bool) *Flat {
	f := &Flat{agg: agg}
	f.alloc(slotsFor(sizeHint), times)
	return f
}

// alloc gives the table fresh arrays of size slots, with timestamps when
// times is set.
func (f *Flat) alloc(size int, times bool) {
	f.tags, f.slots = make([]uint8, size), make([]flatSlot, size)
	f.lines = make([]uint64, (size/flatLine+63)/64)
	if times {
		f.times = make([]flatTimes, size)
	}
}

// slotsFor converts a flow-count hint to a power-of-two slot count that
// keeps the load factor at or below 3/4.
func slotsFor(hint int) int {
	if hint < 1 {
		hint = 1
	}
	need := hint*4/3 + 1
	if need < flatMinSlots {
		need = flatMinSlots
	}
	return 1 << bits.Len(uint(need-1))
}

// flatTag condenses a probe hash to the slot-occupancy byte; 0 is
// reserved for empty slots, so the low bit is forced on (the probe
// position uses the hash's middle bits, the tag its high bits — setting
// a high-byte bit costs half the tag alphabet, not probe quality).
func flatTag(h uint64) uint8 {
	return uint8(h>>56) | 1
}

// flatHomeShift drops the hash's low bits from the probe position. The
// stream engine picks a key's shard with FastHash() % Workers, so every
// key of one shard's table agrees on the low bits of its hash; probing
// from them would leave only every Workers-th slot a home slot and
// lengthen every chain. Bits 16 and up are untouched by any plausible
// worker count and stay clear of the tag's byte for tables up to 2^40
// slots.
const flatHomeShift = 16

// flatHome returns the slot a probe for hash h starts at.
func flatHome(h, mask uint64) uint64 { return h >> flatHomeShift & mask }

// Add accounts one packet.
//
//flowrank:hotpath
func (f *Flat) Add(p packet.Packet) {
	f.AddAggregated(f.agg.Aggregate(p.Key), p.Time, int64(p.Size))
}

// AddAggregated accounts one packet whose flow key has already been
// aggregated — the shard-worker entry point of the streaming engine.
//
//flowrank:hotpath
func (f *Flat) AddAggregated(key flow.Key, time float64, size int64) {
	f.add(key, key.FastHash(), time, size)
}

// add accounts one packet of the flow key, whose FastHash is hash.
//
//flowrank:hotpath
func (f *Flat) add(key flow.Key, hash uint64, time float64, size int64) {
	i, isNew := f.findOrClaim(key, hash)
	s := &f.slots[i]
	if isNew {
		*s = flatSlot{Key: key}
		if f.times != nil {
			f.times[i].First = time
		}
	}
	s.Packets++
	s.Bytes += size
	if f.times != nil {
		f.times[i].Last = time
	}
	f.packets++
	f.bytesT += size
}

// flatBatchGroup is how many observations AddBatch looks ahead: enough
// independent loads to fill a core's miss queue, few enough that the
// lines are still in L1 when the update reaches them.
const flatBatchGroup = 16

// AddBatch accounts the observations in order, exactly as one
// AddAggregated per observation would. On a table beyond the cache an
// AddAggregated stalls on its slot's line before the next packet's
// address is even computed, so the misses run one after another. Here
// each group of flatBatchGroup observations first loads its home tags and
// slot lines (and timestamp lines, when kept) — Go has no prefetch
// intrinsic; ordinary loads whose sum lands in a field do, since none
// depends on another — and only then probes and updates, by which time
// the lines have arrived together.
//
//flowrank:hotpath
func (f *Flat) AddBatch(batch []Observation) {
	for len(batch) > 0 {
		g := batch[:min(flatBatchGroup, len(batch))]
		batch = batch[len(g):]
		mask := uint64(len(f.tags) - 1)
		var touched uint64
		for i := range g {
			j := flatHome(g[i].Hash, mask)
			touched += uint64(f.tags[j]) + uint64(f.slots[j].Key.Src[0])
			if f.times != nil {
				touched += math.Float64bits(f.times[j].Last)
			}
		}
		f.touched += touched
		for i := range g {
			f.add(g[i].Key, g[i].Hash, g[i].Time, g[i].Size)
		}
	}
}

// findOrClaim probes for key, whose FastHash is h, claiming (and marking)
// a fresh slot when absent, and returns the slot's index. The slot is
// stale garbage when isNew — the caller overwrites it.
//
//flowrank:hotpath
func (f *Flat) findOrClaim(key flow.Key, h uint64) (i uint64, isNew bool) {
	tag := flatTag(h)
	mask := uint64(len(f.tags) - 1)
	for i = flatHome(h, mask); ; i = (i + 1) & mask {
		switch f.tags[i] {
		case tag:
			if f.slots[i].Key == key {
				return i, false
			}
		case 0:
			if 4*(f.n+1) > 3*len(f.tags) {
				f.grow(2 * len(f.tags))
				return f.findOrClaim(key, h)
			}
			f.tags[i] = tag
			f.mark(i)
			f.n++
			return i, true
		}
	}
}

// mark records that slot i is occupied in the line bitmap.
//
//flowrank:hotpath
func (f *Flat) mark(i uint64) {
	f.lines[i/(64*flatLine)] |= 1 << (i / flatLine % 64)
}

// markedLines yields the first slot and the tags of every line the bitmap
// marks, in ascending slot order.
func (f *Flat) markedLines(yield func(base int, tags []uint8) bool) {
	for w, word := range f.lines {
		for ; word != 0; word &= word - 1 {
			base := (w*64 + bits.TrailingZeros64(word)) * flatLine
			if !yield(base, f.tags[base:base+flatLine]) {
				return
			}
		}
	}
}

// find returns the index of key's slot, if present.
func (f *Flat) find(key flow.Key) (int, bool) {
	h := key.FastHash()
	tag := flatTag(h)
	mask := uint64(len(f.tags) - 1)
	for i := flatHome(h, mask); ; i = (i + 1) & mask {
		switch f.tags[i] {
		case tag:
			if f.slots[i].Key == key {
				return int(i), true
			}
		case 0:
			return 0, false
		}
	}
}

// grow rehashes into doubled slot arrays and drops the old ones. Only the
// tag survives per slot, so the probe hash is recomputed from each
// slot's key — growth is rare and off the per-packet path.
func (f *Flat) grow(size int) {
	old := *f
	f.alloc(size, old.times != nil)
	mask := uint64(size - 1)
	for base, tags := range old.markedLines {
		for k, t := range tags {
			if t == 0 {
				continue
			}
			j := base + k
			i := flatHome(old.slots[j].Key.FastHash(), mask)
			for f.tags[i] != 0 {
				i = (i + 1) & mask
			}
			f.tags[i] = t
			f.mark(i)
			f.slots[i] = old.slots[j]
			if old.times != nil {
				f.times[i] = old.times[j]
			}
		}
	}
}

// entry returns slot i's flow as an Entry, with zero timestamps when the
// table keeps none.
func (f *Flat) entry(i int) Entry {
	s := &f.slots[i]
	e := Entry{Key: s.Key, Packets: s.Packets, Bytes: s.Bytes}
	if f.times != nil {
		e.First, e.Last = f.times[i].First, f.times[i].Last
	}
	return e
}

// Len returns the number of distinct flows.
func (f *Flat) Len() int { return f.n }

// TotalPackets returns the number of accounted packets.
func (f *Flat) TotalPackets() int64 { return f.packets }

// TotalBytes returns the number of accounted bytes.
func (f *Flat) TotalBytes() int64 { return f.bytesT }

// ErrorBound implements Summary; Flat is exact.
func (f *Flat) ErrorBound() int64 { return 0 }

// Lookup returns the entry for an (aggregated) key, if present.
func (f *Flat) Lookup(key flow.Key) (Entry, bool) {
	i, ok := f.find(key)
	if !ok {
		return Entry{}, false
	}
	return f.entry(i), true
}

// AppendCounts adds every flow's packet count to dst (allocating it when
// nil) and returns it.
func (f *Flat) AppendCounts(dst map[flow.Key]int64) map[flow.Key]int64 {
	if dst == nil {
		dst = make(map[flow.Key]int64, f.n)
	}
	for base, tags := range f.markedLines {
		for k, t := range tags {
			if t != 0 {
				dst[f.slots[base+k].Key] = f.slots[base+k].Packets
			}
		}
	}
	return dst
}

// Reset clears the table for the next measurement bin, keeping its slot
// arrays: steady-state bins allocate nothing. It clears only the marked
// tag lines and then the bitmap, so it costs the bin's flows, not the
// table's size.
func (f *Flat) Reset() {
	for _, tags := range f.markedLines {
		clear(tags)
	}
	clear(f.lines)
	f.n = 0
	f.packets, f.bytesT = 0, 0
}

// Entries returns all flows sorted by the canonical ranking order.
func (f *Flat) Entries() []Entry {
	return f.AppendEntries(nil)
}

// AppendAll appends all flows to dst in slot order and returns it.
func (f *Flat) AppendAll(dst []Entry) []Entry {
	dst = slices.Grow(dst, f.n)
	for base, tags := range f.markedLines {
		for k, t := range tags {
			if t != 0 {
				dst = append(dst, f.entry(base+k))
			}
		}
	}
	return dst
}

// AppendEntries appends all flows to dst in the canonical ranking order
// and returns it. Only the appended region is sorted.
func (f *Flat) AppendEntries(dst []Entry) []Entry { return appendSorted(f, dst) }

// Top returns the k largest flows in ranking order.
func (f *Flat) Top(k int) []Entry {
	return f.AppendTop(nil, k)
}

// AppendTop appends the k largest flows in ranking order to dst and
// returns it.
func (f *Flat) AppendTop(dst []Entry, k int) []Entry {
	dst, _ = f.AppendTopTies(dst, k)
	return dst
}

// AppendTopTies is AppendTop that also counts the flows left out whose
// count equals the last one appended: one scan of the occupied lines,
// which copies out only the flows that could still enter the list.
func (f *Flat) AppendTopTies(dst []Entry, k int) ([]Entry, int) {
	r := newRanker(dst, k, f.n)
	for base, tags := range f.markedLines {
		for j, t := range tags {
			if t != 0 && r.wants(f.slots[base+j].Packets) {
				r.offer(f.entry(base + j))
			}
		}
	}
	return r.result()
}

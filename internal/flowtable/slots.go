package flowtable

import (
	"math/bits"
	"slices"

	"flowrank/internal/flow"
)

// slots is the tracked-flow store under both bounded summaries: at most
// k slots of a flow's key and counts (Flat's 32-byte flatSlot, two to a
// cache line), the flows' first and last packet times in a side array, a
// key index over the slots, an indexed min-heap of slot ids ordered by
// entries[id].Packets (so the weakest tracked flow is h[0] and a slot
// whose count grew is re-seated in O(log k)), and the exact packet/byte
// totals of everything accounted. A slot id never changes once assigned —
// a takeover rewrites the slot in place — so AppendAll's slot order is
// first-tracked order. Everything is pre-sized at construction:
// steady-state adds allocate nothing.
//
// The key index is an open-addressed array of words, (high half of the
// key's FastHash) << 32 | slot id + 1, zero when empty, sized to keep the
// load at or below 1/slotsIndexWordsPerSlot and probed linearly from the
// hash the caller supplies — the one the stream engine computed to pick
// the shard, so a tracked-flow update hashes nothing, and from flatHome's
// bits, because the low ones are that shard choice. hashes keeps each
// slot's full hash: a takeover removes the evicted key by backward-shift
// deletion, which needs the home of every word it moves, and leaves no
// tombstone, so probe lengths do not grow over a bin.
//
// The policy — what a hit does to the count, and when an untracked flow
// takes a slot over — is the embedding sketch's.
type slots struct {
	k       int
	entries []flatSlot  // len <= k
	times   []flatTimes // slot id -> its timestamps
	hashes  []uint64    // slot id -> entries[id].Key.FastHash()
	h       []int32     // min-heap of slot ids ordered by entries[id].Packets
	pos     []int32     // slot id -> heap index
	index   []uint64    // open-addressed key index, power-of-two length
	packets int64
	bytesT  int64
}

// slotsIndexWordsPerSlot sizes the key index: at least this many words per
// slot (rounded up to a power of two), so an unsuccessful probe — every
// packet of an untracked flow — ends after 1.5 words on average.
const slotsIndexWordsPerSlot = 2

// newSlots returns an empty store of k slots, k clamped to [1, MaxSlots].
func newSlots(k int) slots {
	k = min(max(k, 1), MaxSlots)
	return slots{
		k:       k,
		entries: make([]flatSlot, 0, k),
		times:   make([]flatTimes, 0, k),
		hashes:  make([]uint64, 0, k),
		h:       make([]int32, 0, k),
		pos:     make([]int32, 0, k),
		index:   make([]uint64, 1<<bits.Len(uint(slotsIndexWordsPerSlot*k-1))),
	}
}

// find returns the slot tracking key, whose FastHash is hash.
//
//flowrank:hotpath
func (s *slots) find(key flow.Key, hash uint64) (id int32, ok bool) {
	mask := uint64(len(s.index) - 1)
	tag := hash >> 32
	for i := flatHome(hash, mask); ; i = (i + 1) & mask {
		w := s.index[i]
		if w == 0 {
			return 0, false
		}
		if w>>32 == tag {
			if id := int32(uint32(w)) - 1; s.entries[id].Key == key {
				return id, true
			}
		}
	}
}

// indexPut records that slot id holds a key of the given hash; the key is
// not in the index.
//
//flowrank:hotpath
func (s *slots) indexPut(hash uint64, id int32) {
	mask := uint64(len(s.index) - 1)
	i := flatHome(hash, mask)
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = hash>>32<<32 | uint64(id+1)
}

// indexDelete removes slot id's word and closes the gap: each later word
// of the run moves back into the hole unless that would put it before its
// home, so every remaining key stays reachable from its home without a
// tombstone.
//
//flowrank:hotpath
func (s *slots) indexDelete(id int32) {
	mask := uint64(len(s.index) - 1)
	i := flatHome(s.hashes[id], mask)
	for uint32(s.index[i]) != uint32(id+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		w := s.index[j]
		if home := flatHome(s.hashes[uint32(w)-1], mask); (j-home)&mask >= (j-i)&mask {
			s.index[i] = w
			i = j
		}
	}
	s.index[i] = 0
}

// insert tracks the flow of e, whose key's FastHash is hash, in a fresh
// slot, its first packet at time; the caller has checked len(entries) < k.
//
//flowrank:hotpath
func (s *slots) insert(e flatSlot, time float64, hash uint64) {
	id := int32(len(s.entries)) // also the heap's next leaf: every slot is in h
	s.entries = append(s.entries, e)
	s.times = append(s.times, flatTimes{First: time, Last: time})
	s.hashes = append(s.hashes, hash)
	s.indexPut(hash, id)
	s.pos = append(s.pos, id)
	s.h = append(s.h, id)
	s.siftUp(id)
}

// takeover hands slot id to e's flow, whose key's FastHash is hash, from
// its packet at time — the tracked flow it held loses its identity — and
// re-seats the slot in the heap.
//
//flowrank:hotpath
func (s *slots) takeover(id int32, e flatSlot, time float64, hash uint64) {
	s.indexDelete(id)
	s.entries[id] = e
	s.times[id] = flatTimes{First: time, Last: time}
	s.hashes[id] = hash
	s.indexPut(hash, id)
	s.siftDown(s.pos[id])
}

// hit records a packet of the tracked flow in slot id, at time, and
// returns the slot for the caller's count update.
//
//flowrank:hotpath
func (s *slots) hit(id int32, time float64, size int64) *flatSlot {
	e := &s.entries[id]
	e.Bytes += size
	s.times[id].Last = time
	return e
}

// siftUp restores the heap above index i.
//
//flowrank:hotpath
func (s *slots) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.entries[s.h[parent]].Packets <= s.entries[s.h[i]].Packets {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap below index i.
//
//flowrank:hotpath
func (s *slots) siftDown(i int32) {
	n := int32(len(s.h))
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.entries[s.h[l]].Packets < s.entries[s.h[min]].Packets {
			min = l
		}
		if r < n && s.entries[s.h[r]].Packets < s.entries[s.h[min]].Packets {
			min = r
		}
		if min == i {
			return
		}
		s.swap(i, min)
		i = min
	}
}

func (s *slots) swap(i, j int32) {
	s.h[i], s.h[j] = s.h[j], s.h[i]
	s.pos[s.h[i]] = i
	s.pos[s.h[j]] = j
}

// reset empties the store for the next bin, keeping its memory. The index
// holds one word per tracked flow; a store with a free slot left zeroes
// those words alone, a full one clears the whole index.
func (s *slots) reset() {
	if len(s.entries) < s.k {
		mask := uint64(len(s.index) - 1)
		for id, h := range s.hashes {
			// The walk skips the words zeroed before it: it looks for id's
			// word, not for the end of the run.
			i := flatHome(h, mask)
			for uint32(s.index[i]) != uint32(id+1) {
				i = (i + 1) & mask
			}
			s.index[i] = 0
		}
	} else {
		clear(s.index)
	}
	s.entries = s.entries[:0]
	s.times = s.times[:0]
	s.hashes = s.hashes[:0]
	s.h = s.h[:0]
	s.pos = s.pos[:0]
	s.packets, s.bytesT = 0, 0
}

// Len returns the number of tracked flows (at most k).
func (s *slots) Len() int { return len(s.entries) }

// TotalPackets returns the exact number of accounted packets.
func (s *slots) TotalPackets() int64 { return s.packets }

// TotalBytes returns the exact number of accounted bytes.
func (s *slots) TotalBytes() int64 { return s.bytesT }

// entry returns slot id's flow as an Entry.
func (s *slots) entry(id int) Entry {
	e := &s.entries[id]
	return Entry{Key: e.Key, Packets: e.Packets, Bytes: e.Bytes, First: s.times[id].First, Last: s.times[id].Last}
}

// Lookup returns the entry for an (aggregated) key, if tracked.
func (s *slots) Lookup(key flow.Key) (Entry, bool) {
	id, ok := s.find(key, key.FastHash())
	if !ok {
		return Entry{}, false
	}
	return s.entry(int(id)), true
}

// AppendAll appends the tracked flows to dst in slot order.
func (s *slots) AppendAll(dst []Entry) []Entry {
	dst = slices.Grow(dst, len(s.entries))
	for i := range s.entries {
		dst = append(dst, s.entry(i))
	}
	return dst
}

// AppendEntries appends the tracked flows to dst in the canonical
// ranking order (by estimated count) and returns it.
func (s *slots) AppendEntries(dst []Entry) []Entry { return appendSorted(s, dst) }

// AppendTop appends the k highest-estimated flows in ranking order.
func (s *slots) AppendTop(dst []Entry, k int) []Entry {
	dst, _ = s.AppendTopTies(dst, k)
	return dst
}

// AppendTopTies is AppendTop that also counts the tracked flows left out
// whose estimate equals the last one appended.
func (s *slots) AppendTopTies(dst []Entry, k int) ([]Entry, int) {
	r := newRanker(dst, k, len(s.entries))
	for i := range s.entries {
		if r.wants(s.entries[i].Packets) {
			r.offer(s.entry(i))
		}
	}
	return r.result()
}

// AppendCounts adds every tracked flow's estimated packet count to dst.
func (s *slots) AppendCounts(dst map[flow.Key]int64) map[flow.Key]int64 {
	if dst == nil {
		dst = make(map[flow.Key]int64, len(s.entries))
	}
	for i := range s.entries {
		dst[s.entries[i].Key] = s.entries[i].Packets
	}
	return dst
}

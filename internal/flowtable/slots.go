package flowtable

import "flowrank/internal/flow"

// slots is the tracked-flow store under both bounded summaries: at most
// k Entry slots, a key index over them, an indexed min-heap of slot ids
// ordered by entries[id].Packets (so the weakest tracked flow is h[0] and
// a slot whose count grew is re-seated in O(log k)), and the exact
// packet/byte totals of everything accounted. A slot id never changes
// once assigned — a takeover rewrites the slot in place — so AppendAll's
// slot order is first-tracked order. Everything is pre-sized at
// construction: steady-state adds allocate nothing.
//
// The policy — what a hit does to the count, and when an untracked flow
// takes a slot over — is the embedding sketch's.
type slots struct {
	k       int
	entries []Entry // len <= k
	h       []int32 // min-heap of slot ids ordered by entries[id].Packets
	pos     []int32 // slot id -> heap index
	index   map[flow.Key]int32
	packets int64
	bytesT  int64
}

func newSlots(k int) slots {
	return slots{
		k:       k,
		entries: make([]Entry, 0, k),
		h:       make([]int32, 0, k),
		pos:     make([]int32, 0, k),
		index:   make(map[flow.Key]int32, k),
	}
}

// insert tracks e in a fresh slot; the caller has checked
// len(entries) < k.
//
//flowrank:hotpath
func (s *slots) insert(e Entry) {
	id := int32(len(s.entries)) // also the heap's next leaf: every slot is in h
	s.entries = append(s.entries, e)
	s.index[e.Key] = id
	s.pos = append(s.pos, id)
	s.h = append(s.h, id)
	s.siftUp(id)
}

// takeover hands slot id to e's flow — the tracked flow it held loses its
// identity — and re-seats the slot in the heap.
//
//flowrank:hotpath
func (s *slots) takeover(id int32, e Entry) {
	delete(s.index, s.entries[id].Key)
	s.entries[id] = e
	s.index[e.Key] = id
	s.siftDown(s.pos[id])
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

// reset empties the store for the next bin, keeping its memory.
func (s *slots) reset() {
	s.entries = s.entries[:0]
	s.h = s.h[:0]
	s.pos = s.pos[:0]
	clear(s.index)
	s.packets, s.bytesT = 0, 0
}

// Len returns the number of tracked flows (at most k).
func (s *slots) Len() int { return len(s.entries) }

// TotalPackets returns the exact number of accounted packets.
func (s *slots) TotalPackets() int64 { return s.packets }

// TotalBytes returns the exact number of accounted bytes.
func (s *slots) TotalBytes() int64 { return s.bytesT }

// Lookup returns the entry for an (aggregated) key, if tracked.
func (s *slots) Lookup(key flow.Key) (Entry, bool) {
	id, ok := s.index[key]
	if !ok {
		return Entry{}, false
	}
	return s.entries[id], true
}

// AppendAll appends the tracked flows to dst in slot order.
func (s *slots) AppendAll(dst []Entry) []Entry { return append(dst, s.entries...) }

// AppendEntries appends the tracked flows to dst in the canonical
// ranking order (by estimated count) and returns it.
func (s *slots) AppendEntries(dst []Entry) []Entry { return appendSorted(s, dst) }

// AppendTop appends the k highest-estimated flows in ranking order.
func (s *slots) AppendTop(dst []Entry, k int) []Entry { return appendTop(s, dst, k) }

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

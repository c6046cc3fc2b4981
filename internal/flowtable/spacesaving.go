package flowtable

import (
	"flowrank/internal/flow"
	"flowrank/internal/packet"
)

// SpaceSaving is the Space-Saving top-k summary of Metwally, Agrawal and
// El Abbadi: exactly k counters, and when a packet of an untracked flow
// arrives into a full table the minimum counter changes identity — the
// new flow inherits the evicted flow's count (its maximum possible
// undercount) and records it as its error term.
//
// Guarantees, for any input stream (the property tests pin them):
//
//   - every tracked flow's count over-estimates its true count by at most
//     its recorded error, and never under-estimates it;
//   - any flow whose true count exceeds the minimum counter is tracked;
//   - TotalPackets/TotalBytes are exact (every Add is tallied).
//
// Memory is O(k) regardless of how many distinct flows the stream
// carries, and steady-state Adds allocate nothing: the counter array,
// the index and the eviction min-heap are all pre-sized at construction.
type SpaceSaving struct {
	agg     flow.Aggregator
	k       int
	entries []Entry // counter slots, len <= k
	errs    []int64 // errs[i]: count slot i inherited at its last takeover
	h       []int32 // min-heap of slot ids ordered by entries[id].Packets
	pos     []int32 // slot id -> heap index
	index   map[flow.Key]int32
	packets int64
	bytesT  int64
	evicted int64
}

// NewSpaceSaving returns a Space-Saving summary with k counter slots.
func NewSpaceSaving(agg flow.Aggregator, k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving{
		agg:     agg,
		k:       k,
		entries: make([]Entry, 0, k),
		errs:    make([]int64, 0, k),
		h:       make([]int32, 0, k),
		pos:     make([]int32, 0, k),
		index:   make(map[flow.Key]int32, k),
	}
}

// Add accounts one packet.
//
//flowrank:hotpath
func (s *SpaceSaving) Add(p packet.Packet) {
	s.AddAggregated(s.agg.Aggregate(p.Key), p.Time, int64(p.Size))
}

// AddAggregated accounts one packet whose key is already aggregated.
//
//flowrank:hotpath
func (s *SpaceSaving) AddAggregated(key flow.Key, time float64, size int64) {
	s.packets++
	s.bytesT += size
	if id, ok := s.index[key]; ok {
		e := &s.entries[id]
		e.Packets++
		e.Bytes += size
		e.Last = time
		s.siftDown(s.pos[id])
		return
	}
	if len(s.entries) < s.k {
		id := int32(len(s.entries))
		s.entries = append(s.entries, Entry{Key: key, Packets: 1, Bytes: size, First: time, Last: time})
		s.errs = append(s.errs, 0)
		s.index[key] = id
		s.pos = append(s.pos, int32(len(s.h)))
		s.h = append(s.h, id)
		s.siftUp(int32(len(s.h) - 1))
		return
	}
	// Full: the minimum counter changes identity. The new flow inherits
	// the evicted count (and bytes) as its error term — the Space-Saving
	// overcount — so its counter never under-estimates its true count.
	id := s.h[0]
	e := &s.entries[id]
	delete(s.index, e.Key)
	s.errs[id] = e.Packets
	s.evicted++
	*e = Entry{Key: key, Packets: e.Packets + 1, Bytes: e.Bytes + size, First: time, Last: time}
	s.index[key] = id
	s.siftDown(s.pos[id])
}

// siftUp restores the heap above index i.
//
//flowrank:hotpath
func (s *SpaceSaving) siftUp(i int32) {
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
func (s *SpaceSaving) siftDown(i int32) {
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

func (s *SpaceSaving) swap(i, j int32) {
	s.h[i], s.h[j] = s.h[j], s.h[i]
	s.pos[s.h[i]] = i
	s.pos[s.h[j]] = j
}

// Len returns the number of tracked flows (at most k).
func (s *SpaceSaving) Len() int { return len(s.entries) }

// TotalPackets returns the exact number of accounted packets.
func (s *SpaceSaving) TotalPackets() int64 { return s.packets }

// TotalBytes returns the exact number of accounted bytes.
func (s *SpaceSaving) TotalBytes() int64 { return s.bytesT }

// Evictions returns how many identity takeovers have happened.
func (s *SpaceSaving) Evictions() int64 { return s.evicted }

// ErrorBound returns the largest error term of any live counter: every
// tracked count c satisfies true <= c <= true + ErrorBound, and any
// untracked flow's true count is at most the minimum live counter. The
// bound is deterministic.
func (s *SpaceSaving) ErrorBound() int64 {
	var max int64
	for _, e := range s.errs {
		if e > max {
			max = e
		}
	}
	return max
}

// MinCount returns the smallest live counter (0 when empty) — the upper
// bound on any untracked flow's true count.
func (s *SpaceSaving) MinCount() int64 {
	if len(s.h) == 0 {
		return 0
	}
	return s.entries[s.h[0]].Packets
}

// CountError returns the error term recorded for a tracked key: its
// count minus the error is a lower bound on the true count.
func (s *SpaceSaving) CountError(key flow.Key) (int64, bool) {
	id, ok := s.index[key]
	if !ok {
		return 0, false
	}
	return s.errs[id], true
}

// Lookup returns the entry for an (aggregated) key, if tracked.
func (s *SpaceSaving) Lookup(key flow.Key) (Entry, bool) {
	id, ok := s.index[key]
	if !ok {
		return Entry{}, false
	}
	return s.entries[id], true
}

// AddBatch accounts the observations in order.
func (s *SpaceSaving) AddBatch(batch []Observation) {
	for i := range batch {
		s.AddAggregated(batch[i].Key, batch[i].Time, batch[i].Size)
	}
}

// AppendAll appends the tracked flows to dst in slot order.
func (s *SpaceSaving) AppendAll(dst []Entry) []Entry { return append(dst, s.entries...) }

// AppendEntries appends the tracked flows to dst in the canonical
// ranking order (by estimated count) and returns it.
func (s *SpaceSaving) AppendEntries(dst []Entry) []Entry { return appendSorted(s, dst) }

// AppendTop appends the k highest-estimated flows in ranking order.
func (s *SpaceSaving) AppendTop(dst []Entry, k int) []Entry { return appendTop(s, dst, k) }

// AppendCounts adds every tracked flow's estimated packet count to dst.
func (s *SpaceSaving) AppendCounts(dst map[flow.Key]int64) map[flow.Key]int64 {
	if dst == nil {
		dst = make(map[flow.Key]int64, len(s.entries))
	}
	for i := range s.entries {
		dst[s.entries[i].Key] = s.entries[i].Packets
	}
	return dst
}

// Reset clears the summary for the next bin, keeping its memory.
func (s *SpaceSaving) Reset() {
	s.entries = s.entries[:0]
	s.errs = s.errs[:0]
	s.h = s.h[:0]
	s.pos = s.pos[:0]
	clear(s.index)
	s.packets, s.bytesT, s.evicted = 0, 0, 0
}

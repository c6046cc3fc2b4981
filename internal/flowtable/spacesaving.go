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
	slots
	agg  flow.Aggregator
	errs []int64 // errs[i]: count slot i inherited at its last takeover
}

// NewSpaceSaving returns a Space-Saving summary with k counter slots (k
// clamped to [1, MaxSlots]).
func NewSpaceSaving(agg flow.Aggregator, k int) *SpaceSaving {
	sl := newSlots(k)
	return &SpaceSaving{slots: sl, agg: agg, errs: make([]int64, 0, sl.k)}
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
	s.add(key, key.FastHash(), time, size)
}

// add accounts one packet of the flow key, whose FastHash is hash.
//
//flowrank:hotpath
func (s *SpaceSaving) add(key flow.Key, hash uint64, time float64, size int64) {
	s.packets++
	s.bytesT += size
	if id, ok := s.find(key, hash); ok {
		s.hit(id, time, size).Packets++
		s.siftDown(s.pos[id])
		return
	}
	if len(s.entries) < s.k {
		s.insert(flatSlot{Key: key, Packets: 1, Bytes: size}, time, hash)
		s.errs = append(s.errs, 0)
		return
	}
	// Full: the minimum counter changes identity. The new flow inherits
	// the evicted count (and bytes) as its error term — the Space-Saving
	// overcount — so its counter never under-estimates its true count.
	id := s.h[0]
	weakest := &s.entries[id]
	s.errs[id] = weakest.Packets
	s.takeover(id, flatSlot{Key: key, Packets: weakest.Packets + 1, Bytes: weakest.Bytes + size}, time, hash)
}

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

// AddBatch accounts the observations in order, probing the key index
// from each observation's supplied hash.
//
//flowrank:hotpath
func (s *SpaceSaving) AddBatch(batch []Observation) {
	for i := range batch {
		s.add(batch[i].Key, batch[i].Hash, batch[i].Time, batch[i].Size)
	}
}

// Reset clears the summary for the next bin, keeping its memory.
func (s *SpaceSaving) Reset() {
	s.reset()
	s.errs = s.errs[:0]
}

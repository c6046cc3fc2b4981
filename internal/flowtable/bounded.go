package flowtable

import (
	"container/heap"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
)

// Bounded is a flow table with a fixed number of slots, evicting the
// currently-smallest flow when a new flow arrives into a full table — the
// limited-storage ranking memory of Jedwab et al. and Estan–Varghese that
// the paper's future work feeds sampled traffic into. Evicted state is
// lost: if the flow reappears it restarts from zero, exactly like a real
// monitor whose record was reclaimed.
//
// Eviction uses a lazy min-heap over (key, packet count) snapshots:
// entries whose count has changed since being pushed are skipped on pop
// and the heap is rebuilt when stale entries accumulate, keeping Add at
// amortized O(log capacity).
type Bounded struct {
	agg      flow.Aggregator
	capacity int
	entries  map[flow.Key]*Entry
	h        boundedHeap
	// evictions counts flows dropped from a full table.
	evictions int64
}

type boundedSnapshot struct {
	key     flow.Key
	packets int64
}

type boundedHeap []boundedSnapshot

func (h boundedHeap) Len() int { return len(h) }

// Less orders snapshots by packet count with the canonical key order as a
// tiebreak, so eviction among equal-count flows does not depend on the map
// iteration order that fed the heap.
func (h boundedHeap) Less(i, j int) bool {
	if h[i].packets != h[j].packets {
		return h[i].packets < h[j].packets
	}
	return compareKeys(h[i].key, h[j].key) < 0
}
func (h boundedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boundedHeap) Push(x interface{}) { *h = append(*h, x.(boundedSnapshot)) }
func (h *boundedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewBounded returns a bounded table with the given slot capacity.
func NewBounded(agg flow.Aggregator, capacity int) *Bounded {
	if capacity < 1 {
		capacity = 1
	}
	return &Bounded{
		agg:      agg,
		capacity: capacity,
		entries:  make(map[flow.Key]*Entry, capacity),
	}
}

// Add accounts one packet, evicting the smallest tracked flow if a slot
// must be freed.
func (b *Bounded) Add(p packet.Packet) {
	k := b.agg.Aggregate(p.Key)
	e, ok := b.entries[k]
	if !ok {
		if len(b.entries) >= b.capacity {
			b.evictSmallest()
		}
		e = &Entry{Key: k, First: p.Time}
		b.entries[k] = e
	}
	e.Packets++
	e.Bytes += int64(p.Size)
	e.Last = p.Time
	heap.Push(&b.h, boundedSnapshot{key: k, packets: e.Packets})
	if len(b.h) > 4*b.capacity {
		b.rebuildHeap()
	}
}

// evictSmallest removes the flow with the fewest packets.
func (b *Bounded) evictSmallest() {
	for len(b.h) > 0 {
		top := b.h[0]
		e, ok := b.entries[top.key]
		if !ok || e.Packets != top.packets {
			heap.Pop(&b.h) // stale snapshot
			continue
		}
		heap.Pop(&b.h)
		delete(b.entries, top.key)
		b.evictions++
		return
	}
	// Heap exhausted by staleness: rebuild and retry once.
	b.rebuildHeap()
	if len(b.h) > 0 {
		top := heap.Pop(&b.h).(boundedSnapshot)
		delete(b.entries, top.key)
		b.evictions++
	}
}

func (b *Bounded) rebuildHeap() {
	b.h = b.h[:0]
	//flowrank:unordered heap.Init restores heap order and Less is a total order (key tiebreak)
	for k, e := range b.entries {
		b.h = append(b.h, boundedSnapshot{key: k, packets: e.Packets})
	}
	heap.Init(&b.h)
}

// Len returns the number of tracked flows.
func (b *Bounded) Len() int { return len(b.entries) }

// Evictions returns how many flows have been dropped so far.
func (b *Bounded) Evictions() int64 { return b.evictions }

// Lookup returns the entry for an (aggregated) key, if tracked.
func (b *Bounded) Lookup(key flow.Key) (Entry, bool) {
	e, ok := b.entries[key]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Top returns the k largest tracked flows in canonical ranking order.
func (b *Bounded) Top(k int) []Entry {
	t := Table{entries: b.entries}
	return t.Top(k)
}

// Reset clears the table for the next bin.
func (b *Bounded) Reset() {
	clear(b.entries)
	b.h = b.h[:0]
	b.evictions = 0
}

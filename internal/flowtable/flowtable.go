// Package flowtable provides per-bin flow accounting: classify packets
// into flows under a chosen aggregation, count packets and bytes, and
// extract the top-k list — the link-monitor half of the paper's pipeline.
//
// Table is the exact, unbounded map-based accounting the examples and the
// conformance suites use, and the reference the other kinds are tested
// against; Flat is the exact open-addressing table of the streaming engine.
// SpaceSaving and CountMin are the limited-memory variants the paper's
// related work ([11], [13]) studies — a fixed number of slots, the weakest
// giving way when a new flow arrives and the memory is full — over one
// shared slot store (slots.go). Summary (summary.go) is the surface all
// four share.
//
// A packet is hashed once. Summary.AddBatch takes observations that carry
// their key's FastHash, and every structure a kind looks the key up in is
// addressed from that hash: Flat's slot array, the sketches' open-addressed
// slot index, Count-Min's counter rows. No kind keeps a Go map on the
// ingest path (Table, the reference, is one).
package flowtable

import (
	"bytes"
	"cmp"
	"math"
	"slices"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
)

// Entry is one flow's accounting state.
type Entry struct {
	Key     flow.Key
	Packets int64
	Bytes   int64
	// First and Last are the timestamps of the first and most recent
	// accounted packet.
	First, Last float64
}

// Less orders entries by descending packet count with a deterministic
// key-based tiebreak, the canonical ranking order of this module. Keys are
// unique within a table (and across the shards of one engine), so the
// order is total.
func Less(a, b Entry) bool { return compareEntries(a, b) < 0 }

// compareEntries is the three-way form of Less.
func compareEntries(a, b Entry) int {
	if c := cmp.Compare(b.Packets, a.Packets); c != 0 {
		return c
	}
	return compareKeys(a.Key, b.Key)
}

func compareKeys(a, b flow.Key) int {
	if c := bytes.Compare(a.Src[:], b.Src[:]); c != 0 {
		return c
	}
	if c := bytes.Compare(a.Dst[:], b.Dst[:]); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcPort, b.SrcPort); c != 0 {
		return c
	}
	if c := cmp.Compare(a.DstPort, b.DstPort); c != 0 {
		return c
	}
	return cmp.Compare(a.Proto, b.Proto)
}

// SortEntries sorts es into the canonical ranking order in place and
// returns it: the one full sort of the module, behind every Entries and
// AppendEntries.
func SortEntries(es []Entry) []Entry {
	slices.SortFunc(es, compareEntries)
	return es
}

// ranker selects the k highest-ranked of the entries offered to it, in a
// heap appended to the caller's list, and counts the offered entries left
// out whose count equals the lowest-ranked one kept: every kind's
// AppendTopTies in one scan of its storage, which copies out only the
// entries wants lets through.
type ranker struct {
	dst  []Entry // dst[base:] is the heap: the lowest-ranked kept entry at its root
	base int
	k    int
	// floor is the least count an offer needs to enter or tie the list:
	// the root's once the heap holds k entries, MinInt64 before, MaxInt64
	// when k <= 0.
	floor int64
	ties  int
}

// newRanker returns a ranker appending to dst, which grows by the list's
// length: k, or n, the number of entries there are, when that is smaller.
func newRanker(dst []Entry, k, n int) ranker {
	r := ranker{dst: slices.Grow(dst, max(min(k, n), 0)), base: len(dst), k: k, floor: math.MinInt64}
	if k <= 0 {
		r.floor = math.MaxInt64
	}
	return r
}

// wants reports whether an entry of the given count can enter or tie the
// list, so a table builds the Entry only then.
func (r *ranker) wants(packets int64) bool { return packets >= r.floor }

// offer considers e, which wants let through.
func (r *ranker) offer(e Entry) {
	h := r.dst[r.base:]
	if len(h) < r.k {
		r.dst = append(r.dst, e)
		if h = r.dst[r.base:]; len(h) == r.k {
			heapify(h)
			r.floor = h[0].Packets
		}
		return
	}
	if !Less(e, h[0]) {
		if e.Packets == r.floor {
			r.ties++
		}
		return
	}
	// Evict the root. The new root has the evicted one's count, which then
	// ties it, or a larger one that no entry left out so far reaches.
	h[0] = e
	siftDown(h, 0)
	if h[0].Packets == r.floor {
		r.ties++
	} else {
		r.floor, r.ties = h[0].Packets, 0
	}
}

// result returns dst with the list appended in ranking order, and the
// number of entries left out whose count equals the list's last (0 when
// every entry made the list).
func (r *ranker) result() ([]Entry, int) {
	h := r.dst[r.base:]
	if len(h) < r.k {
		heapify(h)
	}
	unwind(h)
	return r.dst, r.ties
}

// heapify orders h as a heap whose root is its lowest-ranked entry: no
// parent outranks a child.
//
//flowrank:hotpath
func heapify(h []Entry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// unwind turns heap h into ranking order.
//
//flowrank:hotpath
func unwind(h []Entry) {
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}
}

// siftDown restores the heap h below index i.
//
//flowrank:hotpath
func siftDown(h []Entry, i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && Less(h[c], h[r]) {
			c = r
		}
		if !Less(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Table is an exact flow accounting table. The zero value is not usable;
// construct with New.
type Table struct {
	agg     flow.Aggregator
	entries map[flow.Key]*Entry
	packets int64
	bytesT  int64
}

// New returns an empty table classifying packets under agg.
func New(agg flow.Aggregator) *Table {
	return &Table{agg: agg, entries: make(map[flow.Key]*Entry)}
}

// Add accounts one packet.
func (t *Table) Add(p packet.Packet) {
	t.AddAggregated(t.agg.Aggregate(p.Key), p.Time, int64(p.Size))
}

// AddAggregated accounts one packet whose flow key has already been
// aggregated, bypassing the table's aggregator. It is the shard-worker
// entry point of the streaming engine, whose reader stage aggregates each
// key once to pick the shard.
func (t *Table) AddAggregated(key flow.Key, time float64, size int64) {
	e, ok := t.entries[key]
	if !ok {
		e = &Entry{Key: key, First: time}
		t.entries[key] = e
	}
	e.Packets++
	e.Bytes += size
	e.Last = time
	t.packets++
	t.bytesT += size
}

// Len returns the number of distinct flows.
func (t *Table) Len() int { return len(t.entries) }

// TotalPackets returns the number of accounted packets.
func (t *Table) TotalPackets() int64 { return t.packets }

// TotalBytes returns the number of accounted bytes.
func (t *Table) TotalBytes() int64 { return t.bytesT }

// Lookup returns the entry for an (aggregated) key, if present.
func (t *Table) Lookup(key flow.Key) (Entry, bool) {
	e, ok := t.entries[key]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Reset clears the table for the next measurement bin.
func (t *Table) Reset() {
	clear(t.entries)
	t.packets, t.bytesT = 0, 0
}

// Entries returns all flows sorted by the canonical ranking order.
func (t *Table) Entries() []Entry {
	return t.AppendEntries(nil)
}

// Top returns the k largest flows in ranking order without sorting the
// whole table: a size-k min-heap pass, O(n log k).
func (t *Table) Top(k int) []Entry {
	return t.AppendTop(nil, k)
}

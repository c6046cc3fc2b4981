package flowtable

import (
	"fmt"
	"slices"

	"flowrank/internal/flow"
)

// Summary is the per-shard flow-accounting contract of the streaming
// engine: everything a shard worker needs to account packets and report
// a bin. Four implementations ship with the package, two exact and two
// of bounded memory:
//
//   - Flat (KindExact): open-addressing exact table, the default hot path
//   - Table (KindMap): map-based exact table, the reference implementation
//   - SpaceSaving (KindSpaceSaving): top-k counters, O(k) memory,
//     deterministic per-flow overcount bound (Metwally et al.)
//   - CountMin (KindCountMin): count-min sketch plus a top-k heap, O(k)
//     memory, probabilistic overcount bound (Cormode–Muthukrishnan)
//
// The two bounded kinds are takeover policies over one tracked-slot store
// (slots).
//
// Exact summaries report every flow with its true count; bounded ones
// report at most their slot budget of flows, each count an overestimate
// by at most ErrorBound. Totals (TotalPackets/TotalBytes) are exact for
// every implementation — each Add is tallied whether or not the flow
// keeps a slot.
type Summary interface {
	// AddAggregated accounts one packet whose key is already aggregated.
	AddAggregated(key flow.Key, time float64, size int64)
	// AddBatch accounts the observations in order, exactly as one
	// AddAggregated per observation would — the stream engine's ingest
	// entry point. Flat, SpaceSaving and CountMin take each key's hash from
	// the observation instead of computing it again. Flat alone groups its
	// loads: it issues the memory accesses of flatBatchGroup observations
	// together instead of taking their cache misses one packet at a time,
	// for the exact original table that sees every packet. The sketches
	// see only the sampled stream and add one observation at a time.
	AddBatch(batch []Observation)
	// Len returns the number of flows currently tracked.
	Len() int
	// TotalPackets and TotalBytes are exact totals over every Add.
	TotalPackets() int64
	TotalBytes() int64
	// AppendAll appends all tracked flows to dst in no particular order
	// and returns dst — what a bin close scores and inverts the sampled
	// table from; AppendTopTies, not this, ranks a top list.
	AppendAll(dst []Entry) []Entry
	// AppendEntries appends all tracked flows to dst in the canonical
	// ranking order (only the appended region is sorted) and returns dst.
	AppendEntries(dst []Entry) []Entry
	// AppendTop appends the k highest-ranked tracked flows to dst in
	// ranking order and returns dst.
	AppendTop(dst []Entry, k int) []Entry
	// AppendTopTies is AppendTop that also returns how many tracked flows
	// it left out have the same count as the last flow it appended (0 when
	// it appended every flow) — what a bin close ranks each of its tables
	// with, in one pass over it.
	AppendTopTies(dst []Entry, k int) ([]Entry, int)
	// AppendCounts adds every tracked flow's packet count to dst
	// (allocating it when nil) and returns it.
	AppendCounts(dst map[flow.Key]int64) map[flow.Key]int64
	// Lookup returns the tracked entry of an (aggregated) key — what a bin
	// close joins a top flow with its sampled count by, and a sampled flow
	// with its original one.
	Lookup(key flow.Key) (Entry, bool)
	// ErrorBound returns the summary's current worst-case per-flow packet
	// overcount: 0 for exact tables, the largest evicted count for
	// Space-Saving (deterministic), and the 2·packets/width Markov bound
	// for Count-Min (holds per flow with probability >= 1 - 2^-depth).
	ErrorBound() int64
	// Reset clears the summary for the next bin, keeping its memory.
	Reset()
}

// Observation is one packet as a Summary's AddBatch takes it: the
// aggregated key with its hash already computed (the engine's reader
// hashes every key once, to pick the shard), the timestamp and the size.
type Observation struct {
	Key  flow.Key
	Hash uint64 // Key.FastHash()
	Time float64
	Size int64
}

// Kind selects a Summary implementation.
type Kind int

const (
	// KindExact is the open-addressing exact table (Flat), the default.
	KindExact Kind = iota
	// KindMap is the map-based exact table (Table), kept as the reference
	// implementation for differential testing.
	KindMap
	// KindSpaceSaving is the Space-Saving top-k summary.
	KindSpaceSaving
	// KindCountMin is the Count-Min sketch + top-k heap summary.
	KindCountMin
)

// String returns the flowtop -table spelling of the kind.
func (k Kind) String() string {
	switch k {
	case KindExact:
		return "exact"
	case KindMap:
		return "map"
	case KindSpaceSaving:
		return "spacesaving"
	case KindCountMin:
		return "countmin"
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// defaultSketchSlots is the per-shard slot budget when a bounded Spec
// leaves Slots at 0.
const defaultSketchSlots = 4096

// MaxSlots is the largest slot budget a bounded Spec accepts, far inside
// the int32 slot ids the sketches' heaps and index words use. A slot
// costs 80 B (key and counts 32, its timestamps 16, its hash 8, heap and
// position 4 + 4, two index words 16); Space-Saving adds an 8 B error term
// and Count-Min 128 B of counters (cmDepth rows x 4 per slot x 8 B): 1.3,
// 1.5 and 3.5 GB per shard at the maximum.
const MaxSlots = 1 << 24

// Spec selects and sizes the Summary implementation of a stream shard's
// sampled table (its original table is NewCounts', exact). The zero Spec
// is the exact open-addressing table at its default pre-size — the
// configuration every existing caller gets implicitly.
type Spec struct {
	Kind Kind
	// Slots is the memory budget in flow slots. For the exact kinds it is
	// a pre-size hint (the table still grows past it); for the bounded
	// kinds it is the hard per-shard budget (default 4096, at most
	// MaxSlots). The Count-Min kind additionally keeps a depth-4 counter
	// array of 4x Slots width.
	Slots int
}

// Validate rejects unusable specs.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindExact, KindMap, KindSpaceSaving, KindCountMin:
	default:
		return fmt.Errorf("flowtable: unknown table kind %d", int(s.Kind))
	}
	if s.Slots < 0 {
		return fmt.Errorf("flowtable: negative slot budget %d", s.Slots)
	}
	if !s.Exact() && s.Slots > MaxSlots {
		return fmt.Errorf("flowtable: slot budget %d above the %s maximum of %d", s.Slots, s.Kind, MaxSlots)
	}
	return nil
}

// Exact reports whether the spec's summaries report every flow with its
// exact count (and therefore merge exactly across shard partitions).
func (s Spec) Exact() bool { return s.Kind == KindExact || s.Kind == KindMap }

// String renders "exact", "spacesaving(4096)", ...
func (s Spec) String() string {
	if s.Exact() {
		return s.Kind.String()
	}
	return fmt.Sprintf("%s(%d)", s.Kind, s.sketchSlots())
}

func (s Spec) sketchSlots() int {
	if s.Slots == 0 {
		return defaultSketchSlots
	}
	return s.Slots
}

// New builds one summary of the spec's kind for the aggregation.
func (s Spec) New(agg flow.Aggregator) (Summary, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindMap:
		return New(agg), nil
	case KindSpaceSaving:
		return NewSpaceSaving(agg, s.sketchSlots()), nil
	case KindCountMin:
		return NewCountMin(agg, s.sketchSlots()), nil
	default:
		return NewFlat(agg, s.Slots), nil
	}
}

// NewCounts builds the exact table the stream engine scores a spec's
// sampled table against, one nothing reads a timestamp from: the map
// reference for the map kind, as New builds it, and for every other kind
// a Flat that keeps a flow's key and counts only, in 32-byte slots, whose
// entries carry zero First and Last. A bounded kind's Slots caps its
// sketch and is no size hint, so that Flat starts at the default size.
func (s Spec) NewCounts(agg flow.Aggregator) (Summary, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Kind == KindMap {
		return New(agg), nil
	}
	if !s.Exact() {
		s.Slots = 0
	}
	return newFlat(agg, s.Slots, false), nil
}

// ParseSpec maps a flowtop -table/-memory flag pair to a Spec.
func ParseSpec(kind string, slots int) (Spec, error) {
	s := Spec{Slots: slots}
	switch kind {
	case "", "exact":
		s.Kind = KindExact
	case "map":
		s.Kind = KindMap
	case "spacesaving":
		s.Kind = KindSpaceSaving
	case "countmin":
		s.Kind = KindCountMin
	default:
		return Spec{}, fmt.Errorf("flowtable: unknown table kind %q (want exact, map, spacesaving, or countmin)", kind)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// --- Table's Summary conformance ------------------------------------------

// AddBatch accounts the observations in order.
func (t *Table) AddBatch(batch []Observation) {
	for i := range batch {
		t.AddAggregated(batch[i].Key, batch[i].Time, batch[i].Size)
	}
}

// AppendAll appends all flows to dst in map iteration order.
func (t *Table) AppendAll(dst []Entry) []Entry {
	dst = slices.Grow(dst, len(t.entries))
	//flowrank:unordered the contract is "no particular order"; a caller that ranks uses AppendTopTies or SortEntries
	for _, e := range t.entries {
		dst = append(dst, *e)
	}
	return dst
}

// AppendEntries appends all flows to dst in the canonical ranking order
// (only the appended region is sorted) and returns it.
func (t *Table) AppendEntries(dst []Entry) []Entry { return appendSorted(t, dst) }

// AppendTop appends the k largest flows in ranking order to dst.
func (t *Table) AppendTop(dst []Entry, k int) []Entry {
	dst, _ = t.AppendTopTies(dst, k)
	return dst
}

// AppendTopTies is AppendTop that also counts the flows left out whose
// count equals the last one appended.
func (t *Table) AppendTopTies(dst []Entry, k int) ([]Entry, int) {
	r := newRanker(dst, k, len(t.entries))
	//flowrank:unordered the list is ranked and the tie count is a count: neither depends on the order offered
	for _, e := range t.entries {
		if r.wants(e.Packets) {
			r.offer(*e)
		}
	}
	return r.result()
}

// AppendCounts adds every flow's packet count to dst (allocating it when
// nil) and returns it.
func (t *Table) AppendCounts(dst map[flow.Key]int64) map[flow.Key]int64 {
	if dst == nil {
		dst = make(map[flow.Key]int64, len(t.entries))
	}
	for k, e := range t.entries {
		dst[k] = e.Packets
	}
	return dst
}

// ErrorBound implements Summary; Table is exact.
func (t *Table) ErrorBound() int64 { return 0 }

// --- AppendEntries, shared by every kind ----------------------------------

// allAppender is the one Summary method AppendEntries is built from.
type allAppender interface {
	AppendAll(dst []Entry) []Entry
}

// appendSorted is AppendEntries over a summary's AppendAll.
func appendSorted(s allAppender, dst []Entry) []Entry {
	base := len(dst)
	dst = s.AppendAll(dst)
	SortEntries(dst[base:])
	return dst
}

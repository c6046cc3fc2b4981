package flowtable

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/randx"
)

// TestSummaryConformance drives every Spec kind built by New, and the two
// exact kinds built by NewCounts, through the full Summary surface — packet Add, aggregated
// add, append accessors, Reset — and checks the observations every
// implementation must agree on: exact totals, budget respect, and top-1
// identity on a stream with one unambiguous heavy hitter.
func TestSummaryConformance(t *testing.T) {
	for _, c := range []struct {
		kind  string
		build func(Spec, flow.Aggregator) (Summary, error)
	}{
		{"exact", Spec.New}, {"map", Spec.New}, {"spacesaving", Spec.New}, {"countmin", Spec.New},
		{"exact", Spec.NewCounts}, {"map", Spec.NewCounts},
	} {
		kind := c.kind
		spec, err := ParseSpec(kind, 128)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := c.build(spec, flow.FiveTuple{})
		if err != nil {
			t.Fatal(err)
		}
		g := randx.New(41)
		heavy := pkt(250, 100, 0).Key
		for round := 0; round < 2; round++ {
			var pkts, bytes int64
			for i := 0; i < 5000; i++ {
				if i%3 == 0 {
					sum.AddAggregated(heavy, float64(i), 100)
					pkts++
					bytes += 100
				} else {
					p := pkt(byte(g.IntN(200)), 40+g.IntN(1400), float64(i))
					sum.AddAggregated(p.Key, p.Time, int64(p.Size))
					pkts++
					bytes += int64(p.Size)
				}
			}
			if sum.TotalPackets() != pkts || sum.TotalBytes() != bytes {
				t.Errorf("%s round %d: totals %d/%d, want %d/%d",
					kind, round, sum.TotalPackets(), sum.TotalBytes(), pkts, bytes)
			}
			if !spec.Exact() && sum.Len() > 128 {
				t.Errorf("%s round %d: %d flows tracked, budget 128", kind, round, sum.Len())
			}
			top := sum.AppendTop(nil, 3)
			if len(top) != 3 || top[0].Key != heavy {
				t.Errorf("%s round %d: top-3 %+v misses the heavy hitter", kind, round, top)
			}
			entries := sum.AppendEntries(nil)
			if len(entries) != sum.Len() || entries[0].Key != heavy {
				t.Errorf("%s round %d: %d entries, first %+v", kind, round, len(entries), entries[0])
			}
			counts := sum.AppendCounts(nil)
			if len(counts) != sum.Len() || counts[heavy] < top[0].Packets {
				t.Errorf("%s round %d: counts map disagrees with top list", kind, round)
			}
			for _, e := range entries {
				if got, ok := sum.Lookup(e.Key); !ok || got != e {
					t.Errorf("%s round %d: Lookup(%v) = %+v, %v; want %+v", kind, round, e.Key, got, ok, e)
				}
			}
			if got, ok := sum.Lookup(pkt(251, 0, 0).Key); ok {
				t.Errorf("%s round %d: Lookup of a flow never added = %+v", kind, round, got)
			}
			if bound := sum.ErrorBound(); spec.Exact() && bound != 0 {
				t.Errorf("%s round %d: exact kind reports ErrorBound %d", kind, round, bound)
			}
			// A bin boundary: the summary must come back empty and reusable.
			sum.Reset()
			if sum.Len() != 0 || sum.TotalPackets() != 0 || sum.TotalBytes() != 0 {
				t.Fatalf("%s: Reset left state behind", kind)
			}
		}
	}
}

// TestNewCountsMatchesNew: a summary from NewCounts, fed what one from New
// is fed — the exact Spec{}'s for a bounded kind, whose NewCounts is exact
// too — answers with the same flows, counts, totals and error bound, and,
// but for the map kind (the reference, built as New builds it), with zero
// First and Last.
func TestNewCountsMatchesNew(t *testing.T) {
	g := randx.New(7)
	tape := make([]Observation, 20000)
	for i := range tape {
		key := randKey(g, 600)
		if g.IntN(3) == 0 {
			key = pkt(byte(g.IntN(6)), 0, 0).Key
		}
		tape[i] = Observation{Key: key, Hash: key.FastHash(), Time: float64(i) * 1e-3, Size: int64(40 + g.IntN(1400))}
	}
	for _, kind := range []string{"exact", "map", "spacesaving", "countmin"} {
		spec, err := ParseSpec(kind, 128)
		if err != nil {
			t.Fatal(err)
		}
		ref := spec
		if !spec.Exact() {
			ref = Spec{}
		}
		full, _ := ref.New(flow.FiveTuple{})
		counts, err := spec.NewCounts(flow.FiveTuple{})
		if err != nil {
			t.Fatal(err)
		}
		timeless := func(es []Entry) []Entry {
			for i := range es {
				es[i].First, es[i].Last = 0, 0
			}
			return es
		}
		for round := 0; round < 2; round++ {
			for rest := tape; len(rest) > 0; {
				n := min(1+g.IntN(700), len(rest))
				full.AddBatch(rest[:n])
				counts.AddBatch(rest[:n])
				rest = rest[n:]
			}
			label := fmt.Sprintf("%s round %d", kind, round)
			got, want := counts.AppendEntries(nil), full.AppendEntries(nil)
			if kind != "map" && slices.ContainsFunc(got, func(e Entry) bool { return e.First != 0 || e.Last != 0 }) {
				t.Fatalf("%s: NewCounts entries carry timestamps", label)
			}
			if !slices.Equal(timeless(got), timeless(want)) {
				t.Fatalf("%s: NewCounts entries differ from New's", label)
			}
			if counts.Len() != full.Len() || counts.TotalPackets() != full.TotalPackets() ||
				counts.TotalBytes() != full.TotalBytes() || counts.ErrorBound() != full.ErrorBound() {
				t.Fatalf("%s: len/packets/bytes/bound differ", label)
			}
			gotTop, gotTies := counts.AppendTopTies(nil, 10)
			wantTop, wantTies := full.AppendTopTies(nil, 10)
			if !slices.Equal(timeless(gotTop), timeless(wantTop)) || gotTies != wantTies {
				t.Fatalf("%s: top lists differ", label)
			}
			for _, e := range want {
				if o, ok := counts.Lookup(e.Key); !ok || o != e && kind != "map" {
					t.Fatalf("%s: Lookup(%v) = %+v, %v; want %+v", label, e.Key, o, ok, e)
				}
			}
			full.Reset()
			counts.Reset()
		}
	}
}

// TestAddBatchMatchesAddAggregated: for every kind, AddBatch is one
// AddAggregated per observation, in order — same flows, counts, byte and
// time bookkeeping, totals and error bound — whatever the batch length
// (empty, one, around the exact table's look-ahead group of 16, a full
// engine batch), across a bin reset, and while the exact table (64 slots
// at the start, thousands of flows) grows in the middle of a group; the
// bounded kinds evict throughout.
func TestAddBatchMatchesAddAggregated(t *testing.T) {
	for _, kind := range []string{"exact", "map", "spacesaving", "countmin"} {
		for _, size := range []int{1, 15, 16, 17, 512} {
			spec, err := ParseSpec(kind, 32)
			if err != nil {
				t.Fatal(err)
			}
			single, _ := spec.New(flow.FiveTuple{})
			batched, _ := spec.New(flow.FiveTuple{})
			g := randx.New(uint64(97 + size))
			for round := 0; round < 2; round++ {
				tape := make([]Observation, 6000)
				for i := range tape {
					key := randKey(g, 20)
					if g.IntN(4) == 0 { // a few heavy flows: revisits inside one group
						key = pkt(byte(g.IntN(4)), 0, 0).Key
					}
					tape[i] = Observation{Key: key, Hash: key.FastHash(), Time: float64(i) * 1e-3, Size: int64(40 + g.IntN(1400))}
				}
				for _, o := range tape {
					single.AddAggregated(o.Key, o.Time, o.Size)
				}
				for len(tape) > 0 {
					n := min(size, len(tape))
					batched.AddBatch(tape[:n])
					batched.AddBatch(nil)
					tape = tape[n:]
				}
				label := fmt.Sprintf("%s batches of %d round %d", kind, size, round)
				if batched.Len() != single.Len() || batched.TotalPackets() != single.TotalPackets() ||
					batched.TotalBytes() != single.TotalBytes() || batched.ErrorBound() != single.ErrorBound() {
					t.Fatalf("%s: len/packets/bytes/bound %d/%d/%d/%d, want %d/%d/%d/%d", label,
						batched.Len(), batched.TotalPackets(), batched.TotalBytes(), batched.ErrorBound(),
						single.Len(), single.TotalPackets(), single.TotalBytes(), single.ErrorBound())
				}
				if got, want := batched.AppendEntries(nil), single.AppendEntries(nil); !slices.Equal(got, want) {
					t.Fatalf("%s: entries diverge", label)
				}
				single.Reset()
				batched.Reset()
			}
		}
	}
	t.Run("sketch hard cases", testSketchBatchHardCases)
}

// sketchState is everything a bounded summary holds that a caller can
// observe, slot order included.
type sketchState struct {
	All                   []Entry
	Errs                  []int64 // Space-Saving: per-slot error terms
	Estimates             []int64 // Count-Min: the sketch's estimate of every probe key
	Packets, Bytes, Bound int64
	WeakestSlot           int64
}

func snapshotSketch(s Summary, probe []flow.Key) sketchState {
	st := sketchState{All: s.AppendAll(nil), Packets: s.TotalPackets(), Bytes: s.TotalBytes(), Bound: s.ErrorBound(), WeakestSlot: -1}
	var store *slots
	switch s := s.(type) {
	case *SpaceSaving:
		store = &s.slots
		st.Errs = slices.Clone(s.errs)
	case *CountMin:
		store = &s.slots
		for _, k := range probe {
			st.Estimates = append(st.Estimates, s.Estimate(k))
		}
	}
	if len(store.h) > 0 {
		st.WeakestSlot = int64(store.h[0])
	}
	return st
}

// testSketchBatchHardCases replays, on 4-slot sketches, the cases where a
// group's saved offsets and early loads could go stale: one key several
// times inside a group, a group that fills the last free slot, a takeover
// followed in the same group by the evicted key returning, and a Reset
// between batches. Every split of the tape into batches — one group, the
// group boundary inside the takeover, one observation at a time — must
// leave the state AddAggregated leaves, compared whole after each batch.
func testSketchBatchHardCases(t *testing.T) {
	key := func(i int) flow.Key { return pkt(byte(i), 0, 0).Key }
	obs := func(ids ...int) []Observation {
		tape := make([]Observation, len(ids))
		for i, id := range ids {
			tape[i] = Observation{Key: key(id), Hash: key(id).FastHash(), Time: float64(i), Size: int64(100 + id)}
		}
		return tape
	}
	probe := make([]flow.Key, 12)
	for i := range probe {
		probe[i] = key(i) // 8..11 never appear: estimates of untracked keys
	}
	tapes := [][]Observation{
		// 0 repeats, 3 fills the last slot, 4 (twice, so Count-Min's estimate
		// beats the weakest) takes a slot over, then all of 0..3 return — one
		// of them the evicted key — and evict again: 16 observations, one group.
		obs(0, 0, 0, 1, 0, 1, 2, 3, 4, 4, 0, 1, 2, 3, 4, 0),
		// After the Reset: fills and takeovers straddling the group boundary.
		obs(5, 5, 6, 7, 5, 0, 1, 1, 1, 6, 7, 2, 2, 2, 5, 0, 0, 3, 3, 3, 3, 6, 7, 5, 5, 4, 4, 4, 4, 4, 0, 1, 2),
	}
	for _, kind := range []string{"spacesaving", "countmin"} {
		for _, size := range []int{1, 3, 9, 16, 33} {
			spec, err := ParseSpec(kind, 4)
			if err != nil {
				t.Fatal(err)
			}
			single, _ := spec.New(flow.FiveTuple{})
			batched, _ := spec.New(flow.FiveTuple{})
			for round, tape := range tapes {
				var firstTracked []flow.Key // what the slots hold if no takeover ever happens
				for _, o := range tape {
					if len(firstTracked) < 4 && !slices.Contains(firstTracked, o.Key) {
						firstTracked = append(firstTracked, o.Key)
					}
				}
				for len(tape) > 0 {
					n := min(size, len(tape))
					for _, o := range tape[:n] {
						single.AddAggregated(o.Key, o.Time, o.Size)
					}
					batched.AddBatch(tape[:n])
					tape = tape[n:]
					if got, want := snapshotSketch(batched, probe), snapshotSketch(single, probe); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s batches of %d, tape %d, %d observations left:\n AddBatch      %+v\n AddAggregated %+v",
							kind, size, round, len(tape), got, want)
					}
				}
				if slices.EqualFunc(batched.AppendAll(nil), firstTracked, func(e Entry, k flow.Key) bool { return e.Key == k }) {
					t.Fatalf("%s tape %d: no slot changed hands; the tape no longer covers the takeover cases", kind, round)
				}
				single.Reset()
				batched.Reset()
				if got, want := snapshotSketch(batched, probe), snapshotSketch(single, probe); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s after Reset: %+v, want %+v", kind, got, want)
				}
			}
		}
	}
}

// TestSummaryPacketAdd covers the unaggregated packet entry point of
// the sketches (the aggregator applies before accounting).
func TestSummaryPacketAdd(t *testing.T) {
	agg := flow.DstPrefix{Bits: 24}
	ss := NewSpaceSaving(agg, 16)
	cm := NewCountMin(agg, 16)
	a, b := pkt(1, 100, 0), pkt(2, 100, 1)
	// Same /24 destination: one aggregate flow in both sketches.
	ss.Add(a)
	ss.Add(b)
	cm.Add(a)
	cm.Add(b)
	if ss.Len() != 1 || cm.Len() != 1 {
		t.Errorf("aggregation not applied: ss %d, cm %d flows", ss.Len(), cm.Len())
	}
	want := agg.Aggregate(a.Key)
	if e, ok := ss.Lookup(want); !ok || e.Packets != 2 {
		t.Errorf("spacesaving entry %+v, %v", e, ok)
	}
	if e, ok := cm.Lookup(want); !ok || e.Packets != 2 {
		t.Errorf("countmin entry %+v, %v", e, ok)
	}
	if _, ok := cm.Lookup(a.Key); ok {
		t.Error("unaggregated key tracked")
	}
	if cm.Estimate(want) < 2 {
		t.Errorf("Estimate = %d, want >= 2", cm.Estimate(want))
	}
	if cm.width < 4*16 {
		t.Errorf("width = %d, want >= 4k", cm.width)
	}
}

// TestSpecStrings pins the flag-facing names.
func TestSpecStrings(t *testing.T) {
	cases := []struct {
		kind  string
		slots int
		want  string
	}{
		{"exact", 0, "exact"},
		{"", 0, "exact"},
		{"map", 512, "map"},
		{"spacesaving", 0, "spacesaving(4096)"},
		{"countmin", 64, "countmin(64)"},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.kind, c.slots)
		if err != nil {
			t.Fatalf("ParseSpec(%q, %d): %v", c.kind, c.slots, err)
		}
		if spec.String() != c.want {
			t.Errorf("ParseSpec(%q, %d).String() = %q, want %q", c.kind, c.slots, spec.String(), c.want)
		}
	}
	if _, err := ParseSpec("bloom", 0); err == nil || !strings.Contains(err.Error(), "bloom") {
		t.Errorf("unknown kind error = %v", err)
	}
	if err := (Spec{Kind: KindSpaceSaving, Slots: -1}).Validate(); err == nil {
		t.Error("negative slot budget accepted")
	}
	// A bounded budget above MaxSlots would overflow the int32 slot ids or
	// the allocator; an exact kind's Slots is only a pre-size hint.
	for _, kind := range []Kind{KindSpaceSaving, KindCountMin} {
		if err := (Spec{Kind: kind, Slots: MaxSlots}).Validate(); err != nil {
			t.Errorf("%s: MaxSlots rejected: %v", kind, err)
		}
		if _, err := ParseSpec(kind.String(), MaxSlots+1); err == nil || !strings.Contains(err.Error(), "maximum") {
			t.Errorf("%s: MaxSlots+1 error = %v", kind, err)
		}
		if _, err := (Spec{Kind: kind, Slots: 1 << 62}).New(flow.FiveTuple{}); err == nil {
			t.Errorf("%s: New built a 2^62-slot table", kind)
		}
	}
	if err := (Spec{Kind: Kind(99)}).Validate(); err == nil {
		t.Error("unknown kind value accepted")
	}
	if _, err := (Spec{Kind: Kind(99)}).New(flow.FiveTuple{}); err == nil {
		t.Error("New accepted an invalid spec")
	}
}

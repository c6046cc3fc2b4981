package flowtable

import (
	"slices"
	"sort"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
	"flowrank/internal/randx"
)

func pkt(srcLast byte, size int, t float64) packet.Packet {
	return packet.Packet{
		Time: t,
		Key: flow.Key{
			Src: flow.Addr{10, 0, 0, srcLast}, Dst: flow.Addr{10, 9, 9, 9},
			SrcPort: 1000 + uint16(srcLast), DstPort: 80, Proto: flow.ProtoTCP,
		},
		Size: size,
	}
}

func TestTableAccounting(t *testing.T) {
	tab := New(flow.FiveTuple{})
	tab.Add(pkt(1, 500, 0.1))
	tab.Add(pkt(1, 700, 0.5))
	tab.Add(pkt(2, 100, 0.2))
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if tab.TotalPackets() != 3 || tab.TotalBytes() != 1300 {
		t.Errorf("totals: %d pkts %d bytes", tab.TotalPackets(), tab.TotalBytes())
	}
	e, ok := tab.Lookup(pkt(1, 0, 0).Key)
	if !ok {
		t.Fatal("flow 1 missing")
	}
	if e.Packets != 2 || e.Bytes != 1200 || e.First != 0.1 || e.Last != 0.5 {
		t.Errorf("entry = %+v", e)
	}
	tab.Reset()
	if tab.Len() != 0 || tab.TotalPackets() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestTableAggregation(t *testing.T) {
	tab := New(flow.DstPrefix{Bits: 24})
	a := pkt(1, 500, 0)
	b := pkt(2, 500, 0)
	// Same /24 destination -> one aggregate flow.
	tab.Add(a)
	tab.Add(b)
	if tab.Len() != 1 {
		t.Errorf("Len = %d, want 1 aggregated flow", tab.Len())
	}
}

func TestTopMatchesFullSort(t *testing.T) {
	g := randx.New(3)
	tab := New(flow.FiveTuple{})
	for i := 0; i < 5000; i++ {
		k := flow.Key{
			Src:     flow.Addr{byte(g.IntN(40)), byte(g.IntN(40)), 0, 1},
			Dst:     flow.Addr{10, 0, 0, 1},
			SrcPort: uint16(g.IntN(100)), DstPort: 80, Proto: flow.ProtoTCP,
		}
		for range 1 + g.IntN(50) {
			tab.AddAggregated(k, 0, 10)
		}
	}
	full := tab.Entries()
	for _, k := range []int{1, 5, 17, 100, tab.Len(), tab.Len() + 10} {
		top := tab.Top(k)
		want := k
		if want > len(full) {
			want = len(full)
		}
		if len(top) != want {
			t.Fatalf("Top(%d) returned %d entries", k, len(top))
		}
		for i := range top {
			if top[i] != full[i] {
				t.Fatalf("Top(%d)[%d] = %+v, full sort has %+v", k, i, top[i], full[i])
			}
		}
	}
	if got := tab.Top(0); got != nil {
		t.Error("Top(0) should be nil")
	}
}

func TestEntriesSortedAndDeterministic(t *testing.T) {
	tab := New(flow.FiveTuple{})
	// Several flows with equal counts: order must be deterministic.
	for i := 0; i < 50; i++ {
		for range 7 {
			tab.AddAggregated(pkt(byte(i), 0, 0).Key, 0, 100)
		}
	}
	a := tab.Entries()
	b := tab.Entries()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Entries order not deterministic under ties")
		}
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return Less(a[i], a[j]) }) {
		t.Error("Entries not sorted by canonical order")
	}
}

// packetSummary is what the bounded-kind tests below drive: the Summary
// surface plus the packet Add both sketches share.
type packetSummary interface {
	Summary
	Add(packet.Packet)
}

// TestBoundedEvictsSmallest pins the victim choice under both takeover
// policies: a full table gives up its weakest slot, in place, and no
// other.
func TestBoundedEvictsSmallest(t *testing.T) {
	ss := NewSpaceSaving(flow.FiveTuple{}, 3)
	cm := NewCountMin(flow.FiveTuple{}, 3)
	// Flows 1..3 get 5, 10, 15 packets; then flow 4 arrives.
	for f, n := range []int{5, 10, 15} {
		for i := 0; i < n; i++ {
			ss.Add(pkt(byte(f+1), 100, float64(i)))
			cm.Add(pkt(byte(f+1), 100, float64(i)))
		}
	}
	weakest, newcomer := pkt(1, 0, 0).Key, pkt(4, 0, 0).Key
	ss.Add(pkt(4, 100, 99))
	cm.Add(pkt(4, 100, 99))

	// Space-Saving: the newcomer takes the weakest slot at once and
	// inherits its count as the error term.
	if _, ok := ss.Lookup(weakest); ok {
		t.Error("spacesaving: smallest flow should have been evicted")
	}
	if e, ok := ss.Lookup(newcomer); !ok || e.Packets != 6 || e.Bytes != 600 || e.First != 99 {
		t.Errorf("spacesaving: newcomer entry %+v, %v", e, ok)
	}
	if errTerm, _ := countError(ss, newcomer); errTerm != 5 || ss.ErrorBound() != 5 {
		t.Errorf("spacesaving: error term %d, bound %d", errTerm, ss.ErrorBound())
	}
	if all := ss.AppendAll(nil); len(all) != 3 || all[0].Key != newcomer {
		t.Errorf("spacesaving: slot order %+v, want the newcomer in the evicted flow's slot", all)
	}

	// Count-Min: one packet's estimate does not beat the weakest slot...
	if _, ok := cm.Lookup(newcomer); ok {
		t.Error("countmin: a one-packet flow displaced a five-packet one")
	}
	// ...six packets' does.
	for i := 0; i < 5; i++ {
		cm.Add(pkt(4, 100, 100+float64(i)))
	}
	if _, ok := cm.Lookup(weakest); ok {
		t.Error("countmin: smallest flow should have been displaced")
	}
	if e, ok := cm.Lookup(newcomer); !ok || e.Packets < 6 || e.Bytes != 100 || e.First != 104 {
		t.Errorf("countmin: newcomer entry %+v, %v", e, ok)
	}
	if all := cm.AppendAll(nil); len(all) != 3 || all[0].Key != newcomer {
		t.Errorf("countmin: slot order %+v, want the newcomer in the displaced flow's slot", all)
	}
	for _, s := range []packetSummary{ss, cm} {
		if e, ok := s.Lookup(pkt(3, 0, 0).Key); !ok || e.Packets < 15 || s.Len() != 3 {
			t.Errorf("%T: largest flow %+v, %v; %d tracked", s, e, ok, s.Len())
		}
	}
}

func TestBoundedKeepsHeavyHittersUnderChurn(t *testing.T) {
	for _, b := range []packetSummary{NewSpaceSaving(flow.FiveTuple{}, 64), NewCountMin(flow.FiveTuple{}, 64)} {
		g := randx.New(8)
		heavy := pkt(200, 100, 0).Key
		// Interleave one heavy flow with a churn of one-packet flows.
		for i := 0; i < 20000; i++ {
			if i%4 == 0 {
				b.Add(packet.Packet{Key: heavy, Size: 100, Time: float64(i)})
			} else {
				k := flow.Key{
					Src:     flow.Addr{byte(g.IntN(250)), byte(g.IntN(250)), byte(g.IntN(250)), 1},
					Dst:     flow.Addr{1, 1, 1, 1},
					SrcPort: uint16(g.IntN(60000)), Proto: flow.ProtoUDP,
				}
				b.Add(packet.Packet{Key: k, Size: 40, Time: float64(i)})
			}
		}
		e, ok := b.Lookup(heavy)
		if !ok {
			t.Fatalf("%T: heavy hitter evicted", b)
		}
		if e.Packets < 5000 || e.Packets > 5000+b.ErrorBound() {
			t.Errorf("%T: heavy hitter count = %d, want 5000 to 5000+%d", b, e.Packets, b.ErrorBound())
		}
		if b.Len() > 64 {
			t.Errorf("%T: table over capacity: %d", b, b.Len())
		}
		if top := b.AppendTop(nil, 1); len(top) != 1 || top[0].Key != heavy {
			t.Errorf("%T: heavy hitter should rank first", b)
		}
	}
}

func TestBoundedReset(t *testing.T) {
	for _, b := range []packetSummary{NewSpaceSaving(flow.FiveTuple{}, 2), NewCountMin(flow.FiveTuple{}, 2)} {
		for i := 0; i < 9; i++ {
			b.Add(pkt(byte(1+i%3), 100, 0))
		}
		b.Reset()
		if b.Len() != 0 || b.ErrorBound() != 0 || len(b.AppendAll(nil)) != 0 {
			t.Errorf("%T: Reset did not clear state", b)
		}
		b.Add(pkt(2, 100, 0))
		if e, ok := b.Lookup(pkt(2, 0, 0).Key); !ok || e.Packets != 1 || b.Len() != 1 {
			t.Errorf("%T: after Reset a first packet reads %+v, %v", b, e, ok)
		}
	}
	ss := NewSpaceSaving(flow.FiveTuple{}, 1)
	ss.Add(pkt(1, 100, 0))
	ss.Add(pkt(2, 100, 0))
	ss.Reset()
	if ss.ErrorBound() != 0 || len(ss.AppendAll(nil)) != 0 {
		t.Errorf("spacesaving: Reset after a takeover left error bound %d, flows %+v", ss.ErrorBound(), ss.AppendAll(nil))
	}
}

func BenchmarkTableAdd(b *testing.B) {
	tab := New(flow.FiveTuple{})
	g := randx.New(1)
	pkts := make([]packet.Packet, 4096)
	for i := range pkts {
		pkts[i] = pkt(byte(g.IntN(256)), 500, float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Add(pkts[i&4095])
	}
}

func TestAddAggregatedMatchesAdd(t *testing.T) {
	g := randx.New(11)
	agg := flow.DstPrefix{Bits: 24}
	direct := New(agg)
	pre := New(agg)
	for i := 0; i < 500; i++ {
		p := pkt(byte(g.IntN(40)), 40+g.IntN(1400), float64(i)*0.01)
		p.Key.Dst[3] = byte(g.IntN(256))
		direct.Add(p)
		pre.AddAggregated(agg.Aggregate(p.Key), p.Time, int64(p.Size))
	}
	if direct.Len() != pre.Len() || direct.TotalPackets() != pre.TotalPackets() ||
		direct.TotalBytes() != pre.TotalBytes() {
		t.Fatalf("totals diverge: %d/%d/%d vs %d/%d/%d",
			direct.Len(), direct.TotalPackets(), direct.TotalBytes(),
			pre.Len(), pre.TotalPackets(), pre.TotalBytes())
	}
	de, pe := direct.Entries(), pre.Entries()
	for i := range de {
		if de[i] != pe[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, de[i], pe[i])
		}
	}
}

// mergeShards merges a bin's shards with the full sort: concatenate the
// shards' unsorted flow lists and sort them; concatenate the shards' top
// lists, sort them and keep the top.
func mergeShards(shards []Summary, dst []Entry, k int) (all, top []Entry) {
	var tops []Entry
	for _, s := range shards {
		dst = s.AppendAll(dst)
		tops = s.AppendTop(tops, k)
	}
	return SortEntries(dst), SortEntries(tops)[:min(k, len(tops))]
}

// checkShardMerge compares a shard merge with the whole table: the top
// lists as delivered, the rest as a set.
func checkShardMerge(t *testing.T, all, top, wantAll, wantTop []Entry) {
	t.Helper()
	if !slices.Equal(top, wantTop) {
		t.Fatalf("merged top lists:\n got %+v\nwant %+v", top, wantTop)
	}
	if len(all) < len(wantTop) || !slices.Equal(all[:len(wantTop)], wantTop) {
		t.Fatalf("merged flow list does not start with the top list %+v", wantTop)
	}
	if !slices.Equal(SortEntries(slices.Clone(all)), wantAll) {
		t.Fatalf("merged flow list holds %d flows that are not the whole table's %d", len(all), len(wantAll))
	}
}

// TestMergeShardedEntries is the engine's merge contract: shard a table by
// key hash, then concatenating the shards' flow lists and selecting the
// top must reproduce the whole table's Entries (as a set) and Top (as
// delivered) exactly.
func TestMergeShardedEntries(t *testing.T) {
	const workers = 4
	whole := New(flow.FiveTuple{})
	shards := make([]Summary, workers)
	for i := range shards {
		shards[i] = New(flow.FiveTuple{})
	}
	g := randx.New(77)
	for i := 0; i < 3000; i++ {
		p := pkt(byte(g.IntN(120)), 40+g.IntN(1000), float64(i)*1e-3)
		p.Key.SrcPort = uint16(g.IntN(200))
		whole.Add(p)
		shards[p.Key.FastHash()%workers].AddAggregated(p.Key, p.Time, int64(p.Size))
	}
	all, top := mergeShards(shards, nil, 10)
	checkShardMerge(t, all, top, whole.Entries(), whole.Top(10))
}

// TestRanker is the contract of the ranker behind every kind's
// AppendTopTies against the full sort, on random lists with heavy ties in
// the packet count, for every k from below 0 past the length, the empty
// list included: offered the list one entry at a time, it must append
// the sorted list's prefix after what dst holds and count the entries
// after it that tie its last.
func TestRanker(t *testing.T) {
	g := randx.New(5)
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{Key: randKey(g, 200), Packets: int64(1 + g.IntN(8)), Bytes: int64(i)}
			es[i].Key.DstPort = uint16(i) // unique keys, as in a table
		}
		want := SortEntries(slices.Clone(es))
		for _, k := range []int{-1, 0, 1, 2, 10, n - 1, n, n + 5} {
			m := max(0, min(k, n))
			prefix := []Entry{{Packets: 999}} // AppendTopTies appends after what dst holds
			r := newRanker(prefix, k, n)
			for _, e := range es {
				if r.wants(e.Packets) {
					r.offer(e)
				}
			}
			ranked, ties := r.result()
			if !slices.Equal(ranked, append(prefix, want[:m]...)) || ties != tiesAfter(want, m) {
				t.Fatalf("n=%d t=%d: ranker appended %+v with %d ties, want %+v with %d",
					n, k, ranked[1:], ties, want[:m], tiesAfter(want, m))
			}
		}
	}
}

func TestCounts(t *testing.T) {
	tab := New(flow.FiveTuple{})
	tab.Add(pkt(1, 100, 0))
	tab.Add(pkt(1, 100, 1))
	tab.Add(pkt(2, 100, 2))
	counts := tab.AppendCounts(nil)
	if len(counts) != 2 || counts[pkt(1, 0, 0).Key] != 2 || counts[pkt(2, 0, 0).Key] != 1 {
		t.Fatalf("AppendCounts = %v", counts)
	}
}

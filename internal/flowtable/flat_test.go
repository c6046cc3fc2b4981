package flowtable

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
	"flowrank/internal/randx"
)

// randKey draws a key from a space of about space^2*64 flows — small
// enough that random workloads revisit flows and collide in the probe
// sequence, large enough to force growth.
func randKey(g *randx.RNG, space int) flow.Key {
	return flow.Key{
		Src:     flow.Addr{byte(g.IntN(space)), byte(g.IntN(space)), 0, 1},
		Dst:     flow.Addr{10, 0, 0, byte(g.IntN(4))},
		SrcPort: uint16(g.IntN(16)), DstPort: 80, Proto: flow.ProtoTCP,
	}
}

// TestFlatMatchesMapReference is the differential contract of the flat
// table: under a mixed random workload (packet adds, runs of aggregated
// packets, bin resets) every observable — totals, Len, Lookup, Entries,
// Top, AppendCounts — is bit-identical to the map reference implementation.
func TestFlatMatchesMapReference(t *testing.T) {
	g := randx.New(101)
	ref := New(flow.FiveTuple{})
	flat := NewFlat(flow.FiveTuple{}, 16) // small hint: forces several grows
	for round := 0; round < 3; round++ {
		for i := 0; i < 20000; i++ {
			k := randKey(g, 24)
			size := len(flat.tags)
			switch g.IntN(3) {
			case 0, 1:
				p := packet.Packet{Key: k, Time: float64(i) * 1e-3, Size: 40 + g.IntN(1400)}
				ref.Add(p)
				flat.Add(p)
			case 2:
				for range g.IntN(5) {
					ref.AddAggregated(k, float64(i)*1e-3, 300)
					flat.AddAggregated(k, float64(i)*1e-3, 300)
				}
			}
			if len(flat.tags) != size {
				checkLines(t, fmt.Sprintf("round %d, grown to %d slots", round, len(flat.tags)), flat)
			}
		}
		checkLines(t, fmt.Sprintf("round %d", round), flat)
		if flat.Len() != ref.Len() || flat.TotalPackets() != ref.TotalPackets() ||
			flat.TotalBytes() != ref.TotalBytes() {
			t.Fatalf("round %d totals: flat %d/%d/%d, ref %d/%d/%d", round,
				flat.Len(), flat.TotalPackets(), flat.TotalBytes(),
				ref.Len(), ref.TotalPackets(), ref.TotalBytes())
		}
		fe, re := flat.Entries(), ref.Entries()
		for i := range re {
			if fe[i] != re[i] {
				t.Fatalf("round %d entry %d: flat %+v, ref %+v", round, i, fe[i], re[i])
			}
		}
		for _, k := range []int{1, 10, ref.Len(), ref.Len() + 5} {
			ft, rt := flat.Top(k), ref.Top(k)
			if len(ft) != len(rt) {
				t.Fatalf("round %d Top(%d): %d vs %d entries", round, k, len(ft), len(rt))
			}
			for i := range rt {
				if ft[i] != rt[i] {
					t.Fatalf("round %d Top(%d)[%d]: %+v vs %+v", round, k, i, ft[i], rt[i])
				}
			}
		}
		fc, rc := flat.AppendCounts(nil), ref.AppendCounts(nil)
		if len(fc) != len(rc) {
			t.Fatalf("round %d AppendCounts: %d vs %d flows", round, len(fc), len(rc))
		}
		for k, v := range rc {
			if fc[k] != v {
				t.Fatalf("round %d AppendCounts[%v] = %d, want %d", round, k, fc[k], v)
			}
			fe, ok := flat.Lookup(k)
			re, _ := ref.Lookup(k)
			if !ok || fe != re {
				t.Fatalf("round %d Lookup(%v) = %+v,%v, want %+v", round, k, fe, ok, re)
			}
		}
		// A bin boundary: both tables must come back empty and reusable.
		ref.Reset()
		flat.Reset()
		if flat.Len() != 0 || flat.TotalPackets() != 0 {
			t.Fatal("Reset did not clear the flat table")
		}
		checkLines(t, fmt.Sprintf("round %d reset", round), flat)
	}
}

// TestFlatZeroKey pins the hash-0 remapping: the zero key (valid under
// prefix aggregation) must be insertable, findable and survive growth.
func TestFlatZeroKey(t *testing.T) {
	flat := NewFlat(flow.DstPrefix{Bits: 24}, 0)
	var zero flow.Key
	for range 7 {
		flat.AddAggregated(zero, 0, 100)
	}
	g := randx.New(5)
	for i := 0; i < 500; i++ { // force at least one grow past 64 slots
		flat.AddAggregated(randKey(g, 40), 0, 40)
	}
	e, ok := flat.Lookup(zero)
	if !ok || e.Packets != 7 || e.Bytes != 700 {
		t.Fatalf("zero key after growth: %+v, %v", e, ok)
	}
}

// TestFlatShardedMergeInto is the engine's merge contract on flat
// tables: hash-sharded flats concatenated into a recycled, non-empty
// buffer and top-selected reproduce the whole table exactly.
func TestFlatShardedMergeInto(t *testing.T) {
	const workers = 4
	whole := NewFlat(flow.FiveTuple{}, 0)
	shards := make([]Summary, workers)
	for i := range shards {
		f := NewFlat(flow.FiveTuple{}, 0)
		shards[i] = f
	}
	g := randx.New(77)
	for i := 0; i < 3000; i++ {
		k := randKey(g, 30)
		for range 1 + g.IntN(9) {
			whole.AddAggregated(k, 0, 50)
		}
	}
	for _, e := range whole.Entries() {
		for range e.Packets {
			shards[e.Key.FastHash()%workers].(*Flat).AddAggregated(e.Key, 0, 50)
		}
	}
	// A recycled destination buffer starts with stale content behind its
	// zero length; the merge must fill over it.
	dst := make([]Entry, 0, whole.Len())
	dst = append(dst, Entry{Packets: 999})[:0]
	all, top := mergeShards(shards, dst, 10)
	if &all[0] != &dst[:1][0] {
		t.Fatal("merge left the pre-sized buffer")
	}
	checkShardMerge(t, all, top, whole.Entries(), whole.Top(10))
}

// checkLines fails unless f's line bitmap marks exactly the tag lines that
// hold an occupied slot — the invariant every scan and Reset relies on: an
// occupied slot in an unmarked line would be missed by every bin close,
// and a marked empty line costs a close a line it need not read.
func checkLines(t *testing.T, label string, f *Flat) {
	t.Helper()
	if want := (len(f.tags)/flatLine + 63) / 64; len(f.lines) != want {
		t.Fatalf("%s: %d bitmap words for %d slots, want %d", label, len(f.lines), len(f.tags), want)
	}
	for j := 0; j < len(f.tags)/flatLine; j++ {
		marked := f.lines[j/64]>>(j%64)&1 != 0
		occupied := slices.ContainsFunc(f.tags[j*flatLine:(j+1)*flatLine], func(t uint8) bool { return t != 0 })
		if marked != occupied {
			t.Fatalf("%s: line %d of %d marked %v, holds an occupied slot %v", label, j, len(f.tags)/flatLine, marked, occupied)
		}
	}
	for j := len(f.tags) / flatLine; j < 64*len(f.lines); j++ {
		if f.lines[j/64]>>(j%64)&1 != 0 {
			t.Fatalf("%s: bit %d marks a line past the %d-slot table", label, j, len(f.tags))
		}
	}
}

// meanDisplacement is how far, on average, a flow sits from the slot its
// probe starts at — the length of the chain an ingest walks.
func meanDisplacement(f *Flat) float64 {
	mask := uint64(len(f.tags) - 1)
	var sum uint64
	for i, tag := range f.tags {
		if tag != 0 {
			sum += (uint64(i) - flatHome(f.slots[i].Key.FastHash(), mask)) & mask
		}
	}
	return float64(sum) / float64(f.n)
}

// TestFlatProbeIgnoresShardBits: the engine gives shard s of W the keys
// with FastHash() % W == s, so all keys of one table agree on low hash
// bits. The probe position must not come from those bits — with 8 shards
// only every 8th slot would be a home slot and chains grow ~3x (mean
// displacement 1.09 unfiltered, 3.01 filtered, at this load before the
// fix). A shard's table must probe like an unsharded one.
func TestFlatProbeIgnoresShardBits(t *testing.T) {
	const flows = 90000 // 131072 slots: load 0.69
	displacement := func(keep func(uint64) bool) float64 {
		f := NewFlat(flow.FiveTuple{}, flows)
		for id := uint32(0); f.Len() < flows; id++ {
			key := flow.Key{
				Src: flow.Addr{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)},
				Dst: flow.Addr{10, 0, 0, 1}, SrcPort: 443, Proto: flow.ProtoTCP,
			}
			if keep(key.FastHash()) {
				f.AddAggregated(key, 1, 100)
			}
		}
		if len(f.tags) != 1<<17 {
			t.Fatalf("table has %d slots, want 131072 (the load is the premise)", len(f.tags))
		}
		return meanDisplacement(f)
	}
	whole := displacement(func(uint64) bool { return true })
	shard := displacement(func(h uint64) bool { return h%8 == 0 })
	t.Logf("mean displacement: unsharded %.3f, shard 0 of 8 %.3f", whole, shard)
	if shard > 1.2*whole {
		t.Fatalf("a shard's table probes %.2fx further than an unsharded one (%.3f vs %.3f): the probe position shares bits with the shard choice",
			shard/whole, shard, whole)
	}
}

// TestSpaceSavingInvariants pins the algorithm's three guarantees on a
// heavy-tailed random stream: estimates never under-count, the recorded
// error brackets the truth, and every flow larger than the minimum
// counter is tracked.
func TestSpaceSavingInvariants(t *testing.T) {
	g := randx.New(13)
	const k = 64
	s := NewSpaceSaving(flow.FiveTuple{}, k)
	truth := map[flow.Key]int64{}
	var pkts, bytes int64
	for i := 0; i < 50000; i++ {
		var key flow.Key
		if g.IntN(3) == 0 { // heavy candidates: 8 flows take a third of traffic
			key = flow.Key{Src: flow.Addr{1, 1, 1, byte(g.IntN(8))}, Proto: flow.ProtoTCP}
		} else {
			key = randKey(g, 100)
		}
		size := int64(40 + g.IntN(1400))
		s.AddAggregated(key, float64(i)*1e-3, size)
		truth[key]++
		pkts++
		bytes += size
	}
	if s.TotalPackets() != pkts || s.TotalBytes() != bytes {
		t.Fatalf("totals not exact: %d/%d, want %d/%d",
			s.TotalPackets(), s.TotalBytes(), pkts, bytes)
	}
	if s.Len() > k {
		t.Fatalf("tracking %d flows, budget %d", s.Len(), k)
	}
	// A takeover records the count it inherits, at least 1, as an error
	// term that only a Reset clears: no takeover, no bound.
	bound := s.ErrorBound()
	if bound == 0 {
		t.Fatal("workload did not pressure the table; invariants untested")
	}
	least := int64(math.MaxInt64) // the smallest live counter
	for _, e := range s.AppendAll(nil) {
		least = min(least, e.Packets)
	}
	for _, e := range s.AppendEntries(nil) {
		tc := truth[e.Key]
		if e.Packets < tc {
			t.Fatalf("flow %v under-estimated: %d < true %d", e.Key, e.Packets, tc)
		}
		if e.Packets > tc+bound {
			t.Fatalf("flow %v above error bound: %d > %d+%d", e.Key, e.Packets, tc, bound)
		}
		errTerm, ok := countError(s, e.Key)
		if !ok {
			t.Fatalf("tracked flow %v has no error term", e.Key)
		}
		if e.Packets-errTerm > tc {
			t.Fatalf("flow %v lower bound broken: %d-%d > true %d",
				e.Key, e.Packets, errTerm, tc)
		}
	}
	for key, tc := range truth {
		if tc > least {
			if _, ok := s.Lookup(key); !ok {
				t.Fatalf("flow %v with true count %d > min counter %d not tracked",
					key, tc, least)
			}
		}
	}
}

// countError returns the error term s recorded for a tracked key: its
// count minus the error is a lower bound on the true count.
func countError(s *SpaceSaving, key flow.Key) (int64, bool) {
	id, ok := s.find(key, key.FastHash())
	if !ok {
		return 0, false
	}
	return s.errs[id], true
}

// TestCountMinNeverUnderEstimates: the sketch estimate of every flow —
// tracked or not — is at least its true count and at most true count
// plus the published bound (the bound is probabilistic per flow, but at
// depth 4 a violation across this whole workload would be astronomically
// unlikely; a failure here means the implementation, not bad luck).
func TestCountMinNeverUnderEstimates(t *testing.T) {
	g := randx.New(29)
	c := NewCountMin(flow.FiveTuple{}, 32)
	truth := map[flow.Key]int64{}
	for i := 0; i < 40000; i++ {
		key := randKey(g, 60)
		c.AddAggregated(key, float64(i)*1e-3, 100)
		truth[key]++
	}
	if c.Len() > 32 {
		t.Fatalf("tracking %d flows, budget 32", c.Len())
	}
	bound := c.ErrorBound()
	if bound <= 0 {
		t.Fatalf("ErrorBound = %d on a loaded sketch", bound)
	}
	over := 0
	for key, tc := range truth {
		est := c.Estimate(key)
		if est < tc {
			t.Fatalf("flow %v under-estimated: %d < true %d", key, est, tc)
		}
		if est > tc+bound {
			over++
		}
	}
	// Per-flow the bound holds w.p. >= 1-2^-4; demand the failure rate
	// stays an order of magnitude under even that pessimistic ceiling.
	if frac := float64(over) / float64(len(truth)); frac > 1.0/16 {
		t.Fatalf("%.3f of flows exceed the error bound", frac)
	}
}

// TestSpaceSavingUnderBudgetIsExact: while distinct flows fit in k, the
// summary is the exact table.
func TestSpaceSavingUnderBudgetIsExact(t *testing.T) {
	g := randx.New(31)
	ref := New(flow.FiveTuple{})
	s := NewSpaceSaving(flow.FiveTuple{}, 1<<13)
	for i := 0; i < 20000; i++ {
		k := randKey(g, 10) // at most 6400 distinct flows, under budget
		tm, size := float64(i)*1e-3, int64(40+g.IntN(1400))
		ref.AddAggregated(k, tm, size)
		s.AddAggregated(k, tm, size)
	}
	if s.ErrorBound() != 0 { // a takeover would have left an error term
		t.Fatalf("under-budget ErrorBound = %d", s.ErrorBound())
	}
	re, se := ref.Entries(), s.AppendEntries(nil)
	if len(re) != len(se) {
		t.Fatalf("%d vs %d entries", len(se), len(re))
	}
	for i := range re {
		if re[i] != se[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, se[i], re[i])
		}
	}
}

// TestBoundedMemoryStaysOk feeds over a million distinct flows through
// both sketches and checks the O(k) memory contract directly: the heap
// growth during ingestion stays within a few hundred kilobytes, against
// the hundreds of megabytes an exact table of the same stream needs.
func TestBoundedMemoryStaysOk(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-flow ingestion")
	}
	const k = 1024
	const flows = 1 << 20
	for _, kind := range []string{"spacesaving", "countmin"} {
		spec, err := ParseSpec(kind, k)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := spec.New(flow.FiveTuple{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < flows; i++ {
			key := flow.Key{
				Src:     flow.Addr{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)},
				Dst:     flow.Addr{10, 0, 0, 1},
				SrcPort: 443, Proto: flow.ProtoTCP,
			}
			sum.AddAggregated(key, float64(i)*1e-6, 100)
		}
		runtime.ReadMemStats(&after)
		if sum.Len() > k {
			t.Fatalf("%s: tracking %d flows, budget %d", kind, sum.Len(), k)
		}
		if sum.TotalPackets() != flows {
			t.Fatalf("%s: TotalPackets = %d, want %d", kind, sum.TotalPackets(), flows)
		}
		if grew := after.HeapAlloc - before.HeapAlloc; after.HeapAlloc > before.HeapAlloc && grew > 512<<10 {
			t.Errorf("%s: heap grew %d bytes ingesting %d flows; summary is not O(k)",
				kind, grew, flows)
		}
	}
}

// TestHotPathAllocFree pins the per-packet allocation budget of every
// summary: after warm-up, accounting a packet allocates nothing.
func TestHotPathAllocFree(t *testing.T) {
	g := randx.New(17)
	keys := make([]flow.Key, 1024)
	for i := range keys {
		keys[i] = randKey(g, 32)
	}
	flat := NewFlat(flow.FiveTuple{}, len(keys))
	ss := NewSpaceSaving(flow.FiveTuple{}, 256)
	cm := NewCountMin(flow.FiveTuple{}, 256)
	warm := func(add func(flow.Key)) func() {
		for _, k := range keys {
			add(k)
		}
		return func() {
			for _, k := range keys {
				add(k)
			}
		}
	}
	cases := []struct {
		name string
		loop func()
	}{
		{"flat", warm(func(k flow.Key) { flat.AddAggregated(k, 1, 100) })},
		{"spacesaving", warm(func(k flow.Key) { ss.AddAggregated(k, 1, 100) })},
		{"countmin", warm(func(k flow.Key) { cm.AddAggregated(k, 1, 100) })},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(50, c.loop); allocs != 0 {
			t.Errorf("%s: %.1f allocs per 1024 packets, want 0", c.name, allocs)
		}
	}
}

// FuzzFlatProbe hammers the open-addressing machinery — probe chains,
// hash-0 remapping, growth mid-stream, bin resets — against the map
// reference, on both slot layouts: a timestamp-keeping Flat (NewFlat) and
// a count-only one (Spec.NewCounts). The byte stream is an op tape: every
// 4 bytes select an operation and a key from a deliberately tiny space so
// collisions and revisits dominate. Half of the packet adds reach the flat
// tables through AddBatch: runs of them queue up and are ingested as one
// batch before the next operation of any other kind. Key, Packets and
// Bytes must match the reference on both tables, First and Last on the
// timestamp-keeping one (the count-only one reports them as zero), and so
// must the top lists and their tie counts.
func FuzzFlatProbe(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 128, 64, 32, 16})
	tape := make([]byte, 0, 4*600)
	for i := 0; i < 600; i++ { // long enough to force growth past 64 slots
		tape = append(tape, byte(i), byte(i>>3), byte(i*7), byte(i%5))
	}
	f.Add(tape)
	tape = tape[:0]
	for i := 0; i < 200; i++ { // one long batch: whole groups, growth inside a group
		tape = append(tape, 2, byte(i), byte(i>>4), byte(i%3))
	}
	f.Add(tape)
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := New(flow.FiveTuple{})
		stamped := NewFlat(flow.FiveTuple{}, 0)
		counts := newFlat(flow.FiveTuple{}, 0, false)
		flats := []*Flat{stamped, counts}
		var queued []Observation
		ingestQueued := func() {
			for _, fl := range flats {
				fl.AddBatch(queued)
				checkLines(t, "after a batch", fl)
			}
			queued = queued[:0]
		}
		// countsOnly is the reference entry as the count-only table
		// reports it.
		countsOnly := func(e Entry) Entry { e.First, e.Last = 0, 0; return e }
		for len(data) >= 4 {
			op, a, b, c := data[0], data[1], data[2], data[3]
			data = data[4:]
			key := flow.Key{
				Src:     flow.Addr{a & 15, b & 15, 0, 1},
				SrcPort: uint16(c & 7), Proto: flow.ProtoTCP,
			}
			if a&16 != 0 { // sometimes the zero key: exercises hash-0 remap
				key = flow.Key{}
			}
			if op%8 != 2 && op%8 != 3 {
				ingestQueued()
			}
			switch op % 8 {
			case 0, 1:
				p := packet.Packet{Key: key, Time: float64(b), Size: int(c) + 1}
				ref.Add(p)
				for _, fl := range flats {
					fl.Add(p)
				}
			case 2, 3:
				ref.AddAggregated(key, float64(b), int64(c)+1)
				queued = append(queued, Observation{Key: key, Hash: key.FastHash(), Time: float64(b), Size: int64(c) + 1})
			case 4, 5:
				for range c {
					ref.AddAggregated(key, float64(b), 10)
					for _, fl := range flats {
						fl.AddAggregated(key, float64(b), 10)
					}
				}
			case 6:
				re, rok := ref.Lookup(key)
				se, sok := stamped.Lookup(key)
				ce, cok := counts.Lookup(key)
				if rok != sok || re != se || rok != cok || countsOnly(re) != ce {
					t.Fatalf("Lookup(%v): stamped %+v,%v counts %+v,%v ref %+v,%v", key, se, sok, ce, cok, re, rok)
				}
			case 7:
				ref.Reset()
				for _, fl := range flats {
					fl.Reset()
				}
			}
			for _, fl := range flats {
				checkLines(t, fmt.Sprintf("after op %d", op%8), fl)
			}
		}
		ingestQueued()
		re := ref.Entries()
		for _, fl := range flats {
			if fl.Len() != ref.Len() || fl.TotalPackets() != ref.TotalPackets() ||
				fl.TotalBytes() != ref.TotalBytes() {
				t.Fatalf("totals: flat %d/%d/%d, ref %d/%d/%d",
					fl.Len(), fl.TotalPackets(), fl.TotalBytes(),
					ref.Len(), ref.TotalPackets(), ref.TotalBytes())
			}
			want := re
			if fl == counts {
				want = make([]Entry, len(re))
				for i, e := range re {
					want[i] = countsOnly(e)
				}
			}
			fe := fl.Entries()
			for i := range want {
				if fe[i] != want[i] {
					t.Fatalf("entry %d (timestamps kept: %v): flat %+v, ref %+v", i, fl == stamped, fe[i], want[i])
				}
			}
			for _, k := range []int{0, 1, 3, len(want)} {
				top, ties := fl.AppendTopTies(nil, k)
				if n := min(k, len(want)); !slices.Equal(top, want[:n]) || ties != tiesAfter(want, n) {
					t.Fatalf("AppendTopTies(%d) (timestamps kept: %v): %+v with %d ties, want %+v with %d",
						k, fl == stamped, top, ties, want[:n], tiesAfter(want, n))
				}
			}
		}
	})
}

// tiesAfter is the tie count of the top-n list of the ranked entries es:
// how many entries after es[:n] have es[n-1]'s count.
func tiesAfter(es []Entry, n int) int {
	ties := 0
	for i := n; n > 0 && i < len(es) && es[i].Packets == es[n-1].Packets; i++ {
		ties++
	}
	return ties
}

// ingestKeys builds the shared key stream of the ingestion benchmarks:
// a heavy-tailed mix over ~4k flows, the shape a shard sees in practice.
func ingestKeys() []flow.Key {
	g := randx.New(1)
	keys := make([]flow.Key, 1<<14)
	for i := range keys {
		if g.IntN(4) == 0 {
			keys[i] = flow.Key{Src: flow.Addr{1, 1, 1, byte(g.IntN(16))}, Proto: flow.ProtoTCP}
		} else {
			keys[i] = randKey(g, 64)
		}
	}
	return keys
}

// The ingestion quartet: identical key streams through all four summary
// implementations, allocation-reported, so bench-smoke can track the
// flat-vs-map speedup and the sketches' overhead in one run.

func BenchmarkIngestMap(b *testing.B) {
	keys := ingestKeys()
	tab := New(flow.FiveTuple{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.AddAggregated(keys[i&(len(keys)-1)], 1, 100)
	}
}

func BenchmarkIngestFlat(b *testing.B) {
	keys := ingestKeys()
	tab := NewFlat(flow.FiveTuple{}, 1<<13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.AddAggregated(keys[i&(len(keys)-1)], 1, 100)
	}
}

func BenchmarkIngestSpaceSaving(b *testing.B) {
	keys := ingestKeys()
	tab := NewSpaceSaving(flow.FiveTuple{}, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.AddAggregated(keys[i&(len(keys)-1)], 1, 100)
	}
}

func BenchmarkIngestCountMin(b *testing.B) {
	keys := ingestKeys()
	tab := NewCountMin(flow.FiveTuple{}, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.AddAggregated(keys[i&(len(keys)-1)], 1, 100)
	}
}

// millionKeys is the ISSUE's target regime: a heavy-tailed stream over a
// million concurrent flows, where the tables no longer fit in cache and
// the map's per-flow pointers become GC scan work. This is where the
// flat table's speedup is measured (the 4k-flow quartet above is
// cache-resident and nearly ties).
func millionKeys() []flow.Key {
	g := randx.New(2)
	keys := make([]flow.Key, 1<<22)
	for i := range keys {
		var id int
		if g.IntN(4) == 0 {
			id = g.IntN(4096)
		} else {
			id = g.IntN(1 << 20)
		}
		keys[i] = flow.Key{
			Src: flow.Addr{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)},
			Dst: flow.Addr{10, 0, 0, 1}, SrcPort: 443, Proto: flow.ProtoTCP,
		}
	}
	return keys
}

// benchMillion measures the steady-state per-packet cost on a fully
// built million-flow table: the stream is ingested once before the
// timer, so every timed Add hits a table at its bin-peak size and the
// ratio between implementations is stable across -benchtime.
func benchMillion(b *testing.B, tab interface {
	AddAggregated(flow.Key, float64, int64)
}) {
	keys := millionKeys()
	for _, k := range keys {
		tab.AddAggregated(k, 1, 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.AddAggregated(keys[i&(len(keys)-1)], 1, 100)
	}
}

func BenchmarkIngestMillionMap(b *testing.B) {
	benchMillion(b, New(flow.FiveTuple{}))
}

func BenchmarkIngestMillionFlat(b *testing.B) {
	tab := NewFlat(flow.FiveTuple{}, 1<<20)
	benchMillion(b, tab)
}

// BenchmarkIngestFlatBatch is the engine's ingest against the per-packet
// one on the same million-flow table (2^21 slots, far beyond L2), on both
// slot layouts: timestamps/ is NewFlat's, 32-byte slots and a 16-byte
// timestamp side array (96 MB), counts/ the engine's original table's,
// the slots alone (64 MB). Each op accounts a million packets of the
// heavy-tailed stream, either one AddAggregated at a time — one
// serialized memory miss per packet — or as the engine does, hashing each
// key once into a batch of 512 and handing it to AddBatch, which overlaps
// the misses of 16 packets.
func BenchmarkIngestFlatBatch(b *testing.B) {
	keys := millionKeys()
	const perOp = 1 << 20
	for _, layout := range []struct {
		name  string
		times bool
	}{{"timestamps", true}, {"counts", false}} {
		run := func(b *testing.B, ingest func(tab *Flat, keys []flow.Key)) {
			tab := newFlat(flow.FiveTuple{}, 1<<20, layout.times)
			ingest(tab, keys) // build the table to its bin-peak size
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := i * perOp & (len(keys) - 1)
				ingest(tab, keys[off:off+perOp])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/perOp, "ns/pkt")
		}
		b.Run(layout.name+"/AddAggregated", func(b *testing.B) {
			run(b, func(tab *Flat, keys []flow.Key) {
				for _, k := range keys {
					tab.AddAggregated(k, 1, 100)
				}
			})
		})
		b.Run(layout.name+"/AddBatch", func(b *testing.B) {
			batch := make([]Observation, 0, 512)
			run(b, func(tab *Flat, keys []flow.Key) {
				for _, k := range keys {
					batch = append(batch, Observation{Key: k, Hash: k.FastHash(), Time: 1, Size: 100})
					if len(batch) == cap(batch) {
						tab.AddBatch(batch)
						batch = batch[:0]
					}
				}
				tab.AddBatch(batch)
				batch = batch[:0]
			})
		})
	}
}

// benchSketchBatch sets a bounded summary's two ingest paths side by side
// on 4096 slots under a mice-heavy stream: 256k packets of millionKeys'
// mix, three in four from flows that never earn a slot, so index misses
// and (Space-Saving) takeovers dominate — the shape a sketch shard sees.
// Both sides read the same pre-built observations; AddAggregated hashes
// each key itself, AddBatch takes the engine's batches of 512 with the
// hash Feed already computed.
func benchSketchBatch(b *testing.B, tab Summary) {
	tape := make([]Observation, 1<<18)
	for i, k := range millionKeys()[:len(tape)] {
		tape[i] = Observation{Key: k, Hash: k.FastHash(), Time: 1, Size: 100}
	}
	run := func(b *testing.B, ingest func()) {
		tab.Reset()
		ingest() // fill the slots and warm the counters
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ingest()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tape)), "ns/pkt")
	}
	b.Run("AddAggregated", func(b *testing.B) {
		run(b, func() {
			for i := range tape {
				tab.AddAggregated(tape[i].Key, tape[i].Time, tape[i].Size)
			}
		})
	})
	b.Run("AddBatch", func(b *testing.B) {
		run(b, func() {
			for t := tape; len(t) > 0; t = t[min(512, len(t)):] {
				tab.AddBatch(t[:min(512, len(t))])
			}
		})
	})
}

func BenchmarkIngestSpaceSavingBatch(b *testing.B) {
	benchSketchBatch(b, NewSpaceSaving(flow.FiveTuple{}, 4096))
}

func BenchmarkIngestCountMinBatch(b *testing.B) {
	benchSketchBatch(b, NewCountMin(flow.FiveTuple{}, 4096))
}

package stream

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/metrics"
	"flowrank/internal/packet"
	"flowrank/internal/sampler"
)

// closeBin is a one-bin trace built from flow sizes: flow f has sizes[f]
// packets, and the packets come round-robin over the flows.
func closeBin(sizes []int) []packet.Packet {
	var pkts []packet.Packet
	left := slices.Clone(sizes)
	for more := true; more; {
		more = false
		for f := range left {
			if left[f] == 0 {
				continue
			}
			left[f]--
			more = true
			pkts = append(pkts, packet.Packet{Time: float64(len(pkts)) * 1e-6, Size: 40 + f%1400, Key: flow.Key{
				Src: flow.Addr{10, byte(f >> 16), byte(f >> 8), byte(f)}, DstPort: 80, Proto: flow.ProtoTCP,
			}})
		}
	}
	return pkts
}

// referenceClose closes a one-bin trace the whole-bin way: per shard an
// exact original table (the map reference) and a sampled table of the
// spec's kind, fed in trace order the packets whose key falls in the shard; every original flow copied out
// with its sampled count joined beside it; the top list ranked to the
// front of the whole list with the counts moving along; and the pairs
// counted over the whole list — by CountSwappedCounts, which must agree
// with a count straight from the definitions (swappedPairs), whose result
// the reference returns: the engine and CountSwappedCounts share
// metrics.Boundary, so only an independent count can catch a fault in it.
func referenceClose(t *testing.T, pkts []packet.Packet, smp sampler.Sampler, spec flowtable.Spec, workers, topT int) BinResult {
	t.Helper()
	agg := flow.FiveTuple{}
	orig := make([]flowtable.Summary, workers)
	samp := make([]flowtable.Summary, workers)
	for i := range orig {
		orig[i] = flowtable.New(agg)
		samp[i], _ = spec.New(agg)
	}
	for _, p := range pkts {
		kept := smp.Sample(p)
		key := agg.Aggregate(p.Key)
		s := key.FastHash() % uint64(workers)
		orig[s].AddAggregated(key, p.Time, int64(p.Size))
		if kept {
			samp[s].AddAggregated(key, p.Time, int64(p.Size))
		}
	}
	var all, sampled []flowtable.Entry
	var join []int64
	for s := range orig {
		from := len(all)
		all = orig[s].AppendAll(all)
		for _, e := range all[from:] {
			se, _ := samp[s].Lookup(e.Key)
			join = append(join, se.Packets)
		}
		sampled = samp[s].AppendAll(sampled)
	}
	selectTopAligned(all, join, topT)
	pairs := swappedPairs(all, join, topT)
	if got := metrics.CountSwappedCounts(all, join, topT); got != pairs {
		t.Fatalf("CountSwappedCounts %+v, counted from the definitions %+v", got, pairs)
	}
	return BinResult{
		OrigTop:    withoutTimes(slices.Clone(all[:min(topT, len(all))])),
		Flows:      len(all),
		SampledTop: slices.Clone(flowtable.SortEntries(sampled)[:min(topT, len(sampled))]),
		Pairs:      pairs,
	}
}

// swappedPairs counts a bin's swapped pairs from the definitions of
// package metrics, pair by pair: es holds every flow with the top t first
// in ranking order, sampled[i] is es[i]'s sampled count. Each top flow
// meets every flow after it, of equal or smaller size; a pair of equal
// sizes is misranked unless both sampled counts are equal and nonzero, a
// pair of unequal sizes when the smaller flow's sampled count reaches the
// larger one's.
func swappedPairs(es []flowtable.Entry, sampled []int64, t int) metrics.PairCounts {
	n := len(es)
	t = min(t, n)
	if t <= 0 || n < 2 {
		return metrics.PairCounts{}
	}
	pc := metrics.PairCounts{Pairs: int64((2*n - t - 1) * t / 2), BoundaryPairs: int64(t * (n - t))}
	for r := range t {
		for j := r + 1; j < n; j++ {
			a, b := sampled[r], sampled[j]
			swapped := b >= a
			if es[r].Packets == es[j].Packets {
				swapped = a != b || a == 0
			}
			if swapped {
				pc.Ranking++
				if j >= t {
					pc.Detection++
				}
			}
		}
	}
	return pc
}

// selectTopAligned ranks the top t of es to its front, aux[i] moving with
// es[i]: a full sort of both by the ranking order, which CountSwappedCounts
// accepts as well as a selection.
func selectTopAligned(es []flowtable.Entry, aux []int64, t int) {
	idx := make([]int, len(es))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if flowtable.Less(es[a], es[b]) {
			return -1
		}
		if flowtable.Less(es[b], es[a]) {
			return 1
		}
		return 0
	})
	ses, saux := make([]flowtable.Entry, len(es)), make([]int64, len(es))
	for i, j := range idx {
		ses[i], saux[i] = es[j], aux[j]
	}
	copy(es, ses)
	copy(aux, saux)
}

// TestShardCloseMatchesWholeBinClose pins the shard-side bin close to the
// whole-bin one (referenceClose): OrigTop, Flows, SampledTop
// and Pairs, for one to four shards — three is a modulo partition — every
// table kind, two top-list lengths and three sampler seeds, on bins that
// stress the scorer: fewer flows than the list, two flows, all sizes
// equal, the list's last size tied by flows spread over the shards, top
// flows that sampling missed, and one giant among mice. The bounded kinds
// get so few slots that the larger bins evict from the sampled table; the
// original side is exact for every kind.
func TestShardCloseMatchesWholeBinClose(t *testing.T) {
	ties := []int{40, 39, 38, 37, 36, 35}
	for range 50 {
		ties = append(ties, 20)
	}
	for f := range 200 {
		ties = append(ties, 1+f%15)
	}
	missed := []int{12, 11, 10, 10, 9, 9, 8, 8, 8, 8, 8}
	for f := range 300 {
		missed = append(missed, 1+f%3)
	}
	giant := []int{3000}
	for range 500 {
		giant = append(giant, 1)
	}
	cases := []struct {
		name  string
		sizes []int
		rate  float64
	}{
		{"n<=t", []int{9, 5, 5, 3, 1}, 0.5},
		{"two flows", []int{7, 3}, 0.5},
		{"all sizes equal", slices.Repeat([]int{4}, 60), 0.5},
		{"ties over shards", ties, 0.3},
		{"top flows missed", missed, 0.05},
		{"giant among mice", giant, 0.1},
	}
	specs := []flowtable.Spec{
		{Kind: flowtable.KindExact},
		{Kind: flowtable.KindMap},
		{Kind: flowtable.KindSpaceSaving, Slots: 32},
		{Kind: flowtable.KindCountMin, Slots: 32},
	}
	for _, c := range cases {
		pkts := closeBin(c.sizes)
		for _, spec := range specs {
			for workers := 1; workers <= 4; workers++ {
				for _, topT := range []int{1, 10} {
					for seed := uint64(1); seed <= 3; seed++ {
						label := fmt.Sprintf("%s spec=%v workers=%d t=%d seed=%d", c.name, spec, workers, topT, seed)
						want := referenceClose(t, pkts, sampler.NewBernoulli(c.rate, seed), spec, workers, topT)
						got := runEngine(t, Config{
							Agg:        flow.FiveTuple{},
							Sampler:    sampler.NewBernoulli(c.rate, seed),
							BinSeconds: 60,
							TopT:       topT,
							Workers:    workers,
							Tables:     spec,
						}, pkts)
						if len(got) != 1 {
							t.Fatalf("%s: %d bins, want 1", label, len(got))
						}
						g := got[0]
						if g.Pairs != want.Pairs || g.Flows != want.Flows ||
							!reflect.DeepEqual(g.OrigTop, want.OrigTop) || !reflect.DeepEqual(g.SampledTop, want.SampledTop) {
							t.Fatalf("%s:\ngot  pairs %+v flows %d\n     top %+v\n     sampled %+v\nwant pairs %+v flows %d\n     top %+v\n     sampled %+v",
								label, g.Pairs, g.Flows, g.OrigTop, g.SampledTop, want.Pairs, want.Flows, want.OrigTop, want.SampledTop)
						}
					}
				}
			}
		}
	}
}

// TestSparseBinsAfterDenseBin closes twenty bins of 1 to 10 flows after
// one of 160k: the dense bin grows every shard's exact original table past
// 65 536 slots, and each quiet bin after it must still see only its own
// flows — a close or a Reset that missed a table line, or left one behind,
// would show here. At 1 and 3 workers, under the exact and the Count-Min
// sampled table (4096 slots: the dense bin fills it, no quiet bin does),
// every bin must equal the whole-bin close with map-reference originals
// (referenceClose), and with the exact table every BinResult must equal
// the map-table run's bit for bit.
func TestSparseBinsAfterDenseBin(t *testing.T) {
	const denseFlows, topT, rate = 160_000, 10, 0.5
	key := func(f int) flow.Key {
		return flow.Key{Src: flow.Addr{10, byte(f >> 16), byte(f >> 8), byte(f)}, DstPort: 80, Proto: flow.ProtoTCP}
	}
	var bins [][]packet.Packet
	var sizes []int
	for f := range denseFlows {
		n := 1
		if f%1000 >= 990 { // ten larger flows in every thousand
			n += f / 1000
		}
		sizes = append(sizes, n)
	}
	bins = append(bins, closeBin(sizes))
	for b := 1; b <= 20; b++ {
		var sparse []packet.Packet
		for f := range 1 + b*7%10 {
			for n := range 1 + (3*f+b)%6 {
				// Keys the dense bin held and keys it did not.
				sparse = append(sparse, packet.Packet{Time: float64(b) + float64(n)*1e-3, Size: 100, Key: key(f*40_000 + b)})
			}
		}
		bins = append(bins, sparse)
	}
	var pkts []packet.Packet
	for _, bin := range bins {
		pkts = append(pkts, bin...)
	}
	for _, workers := range []int{1, 3} {
		perShard := make([]int, workers)
		for f := range denseFlows {
			perShard[key(f).FastHash()%uint64(workers)]++
		}
		if m := slices.Min(perShard); 4*m <= 3*65536 {
			t.Fatalf("workers=%d: a shard holds %d dense flows, too few to grow its table past 65 536 slots", workers, m)
		}
		for _, spec := range []flowtable.Spec{{Kind: flowtable.KindExact}, {Kind: flowtable.KindCountMin, Slots: 4096}} {
			label := fmt.Sprintf("spec=%v workers=%d", spec, workers)
			cfg := func(spec flowtable.Spec) Config {
				return Config{
					Agg:        flow.FiveTuple{},
					Sampler:    sampler.NewBernoulli(rate, 71),
					BinSeconds: 1,
					TopT:       topT,
					Workers:    workers,
					Tables:     spec,
				}
			}
			got := runEngine(t, cfg(spec), pkts)
			if len(got) != len(bins) {
				t.Fatalf("%s: %d bins, want %d", label, len(got), len(bins))
			}
			if !spec.Exact() && got[0].SampledFlows != workers*spec.Slots {
				t.Fatalf("%s: the dense bin tracks %d sampled flows, want every slot full (%d)", label, got[0].SampledFlows, workers*spec.Slots)
			}
			smp := sampler.NewBernoulli(rate, 71) // one decision stream over the bins, as the engine's
			for i, bin := range bins {
				want, g := referenceClose(t, bin, smp, spec, workers, topT), got[i]
				if g.Pairs != want.Pairs || g.Flows != want.Flows ||
					!reflect.DeepEqual(g.OrigTop, want.OrigTop) || !reflect.DeepEqual(g.SampledTop, want.SampledTop) {
					t.Fatalf("%s bin %d:\ngot  pairs %+v flows %d\n     top %+v\n     sampled %+v\nwant pairs %+v flows %d\n     top %+v\n     sampled %+v",
						label, i, g.Pairs, g.Flows, g.OrigTop, g.SampledTop, want.Pairs, want.Flows, want.OrigTop, want.SampledTop)
				}
			}
			if spec.Exact() {
				compareBins(t, label+" against the map tables", got, runEngine(t, cfg(flowtable.Spec{Kind: flowtable.KindMap}), pkts))
			}
		}
	}
}

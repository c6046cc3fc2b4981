package metrics

import (
	"math"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
	"flowrank/internal/randx"
)

func key(i int) flow.Key {
	return flow.Key{Src: flow.Addr{10, 0, byte(i >> 8), byte(i)}, DstPort: 80, Proto: flow.ProtoTCP}
}

// mkBin builds a sorted original list from packet counts (given descending)
// and a sampled map from parallel counts.
func mkBin(orig []int64, sampled []int64) ([]flowtable.Entry, map[flow.Key]int64) {
	entries := make([]flowtable.Entry, len(orig))
	m := make(map[flow.Key]int64, len(sampled))
	for i, c := range orig {
		entries[i] = flowtable.Entry{Key: key(i), Packets: c}
		m[key(i)] = sampled[i]
	}
	return flowtable.SortEntries(entries), m
}

func TestCountSwappedPerfect(t *testing.T) {
	orig, sampled := mkBin([]int64{100, 50, 20, 10, 5}, []int64{10, 5, 2, 1, 1})
	// sampled order preserves original strict order except the 10 vs 5
	// flows tie at 1 sampled packet -> pair (top flow 4? no: t=2).
	pc := CountSwapped(orig, sampled, 2)
	if pc.Ranking != 0 || pc.Detection != 0 {
		t.Errorf("expected perfect ranking, got %+v", pc)
	}
	if pc.Pairs != (2*5-2-1)*2/2 {
		t.Errorf("Pairs = %d", pc.Pairs)
	}
	if pc.BoundaryPairs != 2*3 {
		t.Errorf("BoundaryPairs = %d", pc.BoundaryPairs)
	}
}

func TestCountSwappedSimpleSwap(t *testing.T) {
	// Top-1 flow sampled below the second flow: the (1,2) pair is swapped.
	orig, sampled := mkBin([]int64{100, 50, 20}, []int64{3, 7, 1})
	pc := CountSwapped(orig, sampled, 1)
	if pc.Ranking != 1 {
		t.Errorf("Ranking = %d, want 1", pc.Ranking)
	}
	if pc.Detection != 1 {
		t.Errorf("Detection = %d, want 1", pc.Detection)
	}
}

func TestCountSwappedTieCountsAsSwap(t *testing.T) {
	// Sampled tie between distinct original sizes is a swap (Eq. 1).
	orig, sampled := mkBin([]int64{100, 50}, []int64{4, 4})
	pc := CountSwapped(orig, sampled, 1)
	if pc.Ranking != 1 {
		t.Errorf("sampled tie should count as swapped, got %+v", pc)
	}
	// Both zero is also a swap.
	orig, sampled = mkBin([]int64{100, 50}, []int64{0, 0})
	pc = CountSwapped(orig, sampled, 1)
	if pc.Ranking != 1 {
		t.Errorf("both-zero should count as swapped, got %+v", pc)
	}
}

func TestCountSwappedEqualOriginals(t *testing.T) {
	// Equal original sizes: misranked unless sampled equal and nonzero.
	orig, sampled := mkBin([]int64{10, 10}, []int64{3, 3})
	if pc := CountSwapped(orig, sampled, 1); pc.Ranking != 0 {
		t.Errorf("equal originals with equal nonzero samples: %+v", pc)
	}
	orig, sampled = mkBin([]int64{10, 10}, []int64{3, 2})
	if pc := CountSwapped(orig, sampled, 1); pc.Ranking != 1 {
		t.Errorf("equal originals with different samples: %+v", pc)
	}
	orig, sampled = mkBin([]int64{10, 10}, []int64{0, 0})
	if pc := CountSwapped(orig, sampled, 1); pc.Ranking != 1 {
		t.Errorf("equal originals both zero: %+v", pc)
	}
}

func TestCountSwappedDetectionSubsetOfRanking(t *testing.T) {
	g := randx.New(4)
	for trial := 0; trial < 200; trial++ {
		n := 20 + g.IntN(60)
		orig := make([]int64, n)
		samp := make([]int64, n)
		for i := range orig {
			orig[i] = int64(1 + g.IntN(1000))
			samp[i] = int64(g.Binomial(int(orig[i]), 0.1))
		}
		entries, m := mkBin(orig, samp)
		tt := 1 + g.IntN(8)
		pc := CountSwapped(entries, m, tt)
		if pc.Detection > pc.Ranking {
			t.Fatalf("detection %d > ranking %d", pc.Detection, pc.Ranking)
		}
		if pc.Ranking > pc.Pairs || pc.Detection > pc.BoundaryPairs {
			t.Fatalf("metric exceeds pair budget: %+v", pc)
		}
	}
}

// countSwappedRef is the row-major form CountSwapped had while it took a
// fully sorted list: every top flow against every flow ranked below it,
// t map lookups per flow. The literal reading of §5.1/§7.1, kept as the
// oracle for the flow-major pass.
func countSwappedRef(orig []flowtable.Entry, sampled map[flow.Key]int64, t int) PairCounts {
	n := len(orig)
	if t > n {
		t = n
	}
	var pc PairCounts
	if t <= 0 || n < 2 {
		return pc
	}
	nn := int64(n)
	tt := int64(t)
	pc.Pairs = (2*nn - tt - 1) * tt / 2
	pc.BoundaryPairs = tt * (nn - tt)
	for r := 0; r < t; r++ {
		a := orig[r]
		sa := sampled[a.Key]
		for j := r + 1; j < n; j++ {
			b := orig[j]
			sb := sampled[b.Key]
			var swapped bool
			if a.Packets == b.Packets {
				swapped = sa != sb || sa == 0
			} else {
				swapped = sb >= sa
			}
			if !swapped {
				continue
			}
			pc.Ranking++
			if j >= t {
				pc.Detection++
			}
		}
	}
	return pc
}

// TestCountSwappedUnsortedTail pins the relaxed precondition: with only
// orig[:t] ranked and the flows below the top list shuffled, CountSwapped
// returns what the row-major reference returns on the fully sorted list —
// on random bins with heavy ties in the original size (also across the
// top-list boundary), flows sampled to zero or missing from the map, and
// t from 0 past the flow count.
func TestCountSwappedUnsortedTail(t *testing.T) {
	g := randx.New(8)
	for trial := 0; trial < 300; trial++ {
		n := 2 + g.IntN(60)
		entries := make([]flowtable.Entry, n)
		sampled := make(map[flow.Key]int64, n)
		for i := range entries {
			entries[i] = flowtable.Entry{Key: key(i), Packets: int64(1 + g.IntN(12))}
			switch s := g.Binomial(int(entries[i].Packets), 0.3); {
			case s > 0:
				sampled[key(i)] = int64(s)
			case g.IntN(2) == 0:
				sampled[key(i)] = 0 // present but zero; otherwise missing
			}
		}
		flowtable.SortEntries(entries)
		for _, tt := range []int{0, 1, 2, n - 1, n, n + 5} {
			want := countSwappedRef(entries, sampled, tt)
			shuffled := append([]flowtable.Entry(nil), entries...)
			if tt < n {
				tail := shuffled[max(tt, 0):]
				for i := len(tail) - 1; i > 0; i-- {
					j := g.IntN(i + 1)
					tail[i], tail[j] = tail[j], tail[i]
				}
			}
			if got := CountSwapped(shuffled, sampled, tt); got != want {
				t.Fatalf("trial %d n=%d t=%d: %+v, want %+v", trial, n, tt, got, want)
			}
		}
	}
}

// TestCountSwappedCountsMatchesMap pins the aligned form to the map form
// CountSwapped keeps as its reference: on random bins with heavy ties in
// the original size, flows sampled to zero (in the map as 0 or missing),
// the flows below the top list shuffled together with their counts, t
// from below 0 past the flow count, and bins of fewer than two flows.
func TestCountSwappedCountsMatchesMap(t *testing.T) {
	g := randx.New(12)
	for trial := 0; trial < 300; trial++ {
		n := g.IntN(80)
		entries := make([]flowtable.Entry, n)
		for i := range entries {
			entries[i] = flowtable.Entry{Key: key(i), Packets: int64(1 + g.IntN(12))}
		}
		flowtable.SortEntries(entries)
		for _, tt := range []int{-1, 0, 1, 2, 17, 40, n - 1, n, n + 5} {
			rest := entries[max(0, min(tt, n)):]
			for i := len(rest) - 1; i > 0; i-- {
				j := g.IntN(i + 1)
				rest[i], rest[j] = rest[j], rest[i]
			}
			counts := make([]int64, n)
			sampled := make(map[flow.Key]int64, n)
			for i, e := range entries {
				counts[i] = int64(g.Binomial(int(e.Packets), 0.3))
				if counts[i] > 0 || g.IntN(2) == 0 {
					sampled[e.Key] = counts[i]
				}
			}
			want := CountSwapped(entries, sampled, tt)
			if got := CountSwappedCounts(entries, counts, tt); got != want {
				t.Fatalf("trial %d n=%d t=%d: %+v, map form %+v", trial, n, tt, got, want)
			}
			flowtable.SortEntries(entries)
		}
	}
}

func TestCountSwappedDegenerate(t *testing.T) {
	if pc := CountSwapped(nil, nil, 5); pc.Ranking != 0 || pc.Pairs != 0 {
		t.Errorf("empty bin: %+v", pc)
	}
	orig, sampled := mkBin([]int64{5}, []int64{1})
	if pc := CountSwapped(orig, sampled, 3); pc.Ranking != 0 {
		t.Errorf("single flow: %+v", pc)
	}
	// t larger than N clamps.
	orig, sampled = mkBin([]int64{5, 3}, []int64{0, 1})
	pc := CountSwapped(orig, sampled, 10)
	if pc.Pairs != 1 {
		t.Errorf("clamped pairs = %d, want 1", pc.Pairs)
	}
}

func TestCountSwappedPerfectSamplingIsZero(t *testing.T) {
	// p = 1 sampling (sampled == orig) must give zero for any t.
	g := randx.New(5)
	n := 100
	orig := make([]int64, n)
	for i := range orig {
		orig[i] = int64(1 + g.IntN(500))
	}
	entries, m := mkBin(orig, orig)
	for _, tt := range []int{1, 5, 50, 99} {
		if pc := CountSwapped(entries, m, tt); pc.Ranking != 0 {
			t.Errorf("t=%d: perfect sampling gave %+v", tt, pc)
		}
	}
}

func TestTopKOverlap(t *testing.T) {
	orig, _ := mkBin([]int64{100, 50, 20, 10, 5}, []int64{0, 0, 0, 0, 0})
	// Sampled list with 2 of the top-3 in its top-3.
	sampledList := []flowtable.Entry{
		{Key: key(0), Packets: 9},
		{Key: key(3), Packets: 8},
		{Key: key(1), Packets: 7},
		{Key: key(2), Packets: 1},
	}
	got := TopKOverlap(orig, sampledList, 3)
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("overlap = %g, want 2/3", got)
	}
	if TopKOverlap(orig, sampledList, 0) != 0 {
		t.Error("k=0 should be 0")
	}
}

func TestRunningStat(t *testing.T) {
	var r RunningStat
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("mean = %g", r.Mean())
	}
	// Population sd is 2; sample variance = 32/7.
	if math.Abs(r.Var()-32.0/7.0) > 1e-12 {
		t.Errorf("var = %g", r.Var())
	}
}

// TestCountSwappedMatchesNaive cross-checks the production pair counter
// against an independent quadratic reference on random bins.
func TestCountSwappedMatchesNaive(t *testing.T) {
	g := randx.New(7)
	for trial := 0; trial < 100; trial++ {
		n := 5 + g.IntN(40)
		orig := make([]int64, n)
		samp := make([]int64, n)
		for i := range orig {
			orig[i] = int64(1 + g.IntN(30)) // small range forces ties
			samp[i] = int64(g.Binomial(int(orig[i]), 0.3))
		}
		entries, m := mkBin(orig, samp)
		tt := 1 + g.IntN(n-1)
		got := CountSwapped(entries, m, tt)

		// Naive reference, written independently.
		var rank, det int64
		for r := 0; r < tt; r++ {
			for j := r + 1; j < n; j++ {
				a, b := entries[r], entries[j]
				sa, sb := m[a.Key], m[b.Key]
				var swapped bool
				if a.Packets == b.Packets {
					swapped = !(sa == sb && sa != 0)
				} else {
					swapped = sb >= sa
				}
				if swapped {
					rank++
					if j >= tt {
						det++
					}
				}
			}
		}
		if got.Ranking != rank || got.Detection != det {
			t.Fatalf("trial %d: got %+v, naive (%d, %d)", trial, got, rank, det)
		}
	}
}

func BenchmarkCountSwapped(b *testing.B) {
	g := randx.New(9)
	n := 100000
	orig := make([]int64, n)
	samp := make([]int64, n)
	for i := range orig {
		orig[i] = int64(1 + g.IntN(1000))
		samp[i] = int64(g.Binomial(int(orig[i]), 0.01))
	}
	entries, m := mkBin(orig, samp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CountSwapped(entries, m, 10)
	}
}

func TestPairCountFractions(t *testing.T) {
	var zero PairCounts
	if zero.RankingFrac() != 0 || zero.DetectionFrac() != 0 {
		t.Fatalf("zero-pair fractions: %g, %g", zero.RankingFrac(), zero.DetectionFrac())
	}
	pc := PairCounts{Ranking: 3, Detection: 1, Pairs: 12, BoundaryPairs: 4}
	if got := pc.RankingFrac(); got != 0.25 {
		t.Errorf("RankingFrac = %g, want 0.25", got)
	}
	if got := pc.DetectionFrac(); got != 0.25 {
		t.Errorf("DetectionFrac = %g, want 0.25", got)
	}
}

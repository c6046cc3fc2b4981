// Package metrics implements the paper's two swapped-pair performance
// metrics exactly as defined in §5.1 and §7.1, plus auxiliary rank-quality
// measures (top-k set overlap, Kendall tau) used by the examples.
//
// Conventions (matching internal/core and Eq. 1):
//
//   - For a pair with distinct original sizes, the pair is misranked iff
//     sampled(smaller) >= sampled(larger) — sampled ties and the
//     both-sampled-to-zero outcome count as misranked.
//   - For a pair with equal original sizes, the pair is misranked unless
//     both sampled sizes are equal and nonzero.
//   - The ranking metric counts pairs whose first element is one of the
//     top-t original flows and whose second element is any other flow;
//     pairs inside the top-t are counted once. With N flows that is
//     (2N-t-1)·t/2 pairs.
//   - The detection metric counts only the t·(N-t) pairs that straddle
//     the top-t boundary.
package metrics

import (
	"math"
	"slices"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
)

// PairCounts carries both §5 and §7 metrics for one measurement bin.
type PairCounts struct {
	// Ranking is the number of swapped pairs with first element in the
	// original top-t (the §5.1 metric).
	Ranking int64
	// Detection is the number of swapped pairs straddling the top-t
	// boundary (the §7.1 metric).
	Detection int64
	// Pairs and BoundaryPairs are the corresponding totals
	// (2N-t-1)·t/2 and t·(N-t), for normalization.
	Pairs, BoundaryPairs int64
}

// RankingFrac returns the ranking metric normalized by its pair total, in
// [0, 1] — the quantity the paper's figures plot. It is 0 for bins with no
// countable pairs.
func (p PairCounts) RankingFrac() float64 {
	if p.Pairs == 0 {
		return 0
	}
	return float64(p.Ranking) / float64(p.Pairs)
}

// DetectionFrac returns the detection metric normalized by the boundary
// pair total, in [0, 1]; 0 for bins with no boundary pairs.
func (p PairCounts) DetectionFrac() float64 {
	if p.BoundaryPairs == 0 {
		return 0
	}
	return float64(p.Detection) / float64(p.BoundaryPairs)
}

// CountSwapped computes both metrics for one bin.
//
// orig must hold every flow of the bin with the original top list first:
// orig[:t] are the t highest-ranked flows in the order of flowtable.Less
// (packet count descending, deterministic tiebreak) and the remaining
// flows follow in any order — the definitions only ever compare a top
// flow with another flow, so a fully sorted list (flowtable.SortEntries)
// is accepted but not needed. sampled maps flow keys to sampled packet
// counts; missing keys mean the flow was not sampled at all.
//
// This map form is the API for callers holding their own tables and the
// reference CountSwappedCounts is tested against; the stream engine
// scores each shard's flows against the bin's top list with a Boundary.
func CountSwapped(orig []flowtable.Entry, sampled map[flow.Key]int64, t int) PairCounts {
	t = min(max(t, 0), len(orig))
	top := make([]int64, t)
	for r := range top {
		top[r] = sampled[orig[r].Key]
	}
	b := NewBoundary(orig[:t], top)
	var detection int64
	for _, e := range orig[t:] {
		detection += b.Score(e.Packets, sampled[e.Key])
	}
	return b.Pairs(len(orig), detection)
}

// CountSwappedCounts is CountSwapped with the sampled counts supplied as a
// slice aligned with orig (sampled[i] is the sampled size of orig[i]) —
// no map and no lookup: what the simulators count a bin with.
func CountSwappedCounts(orig []flowtable.Entry, sampled []int64, t int) PairCounts {
	t = min(max(t, 0), len(orig))
	sampled = sampled[:len(orig)]
	b := NewBoundary(orig[:t], sampled[:t])
	var detection int64
	for i, e := range orig[t:] {
		detection += b.Score(e.Packets, sampled[t+i])
	}
	return b.Pairs(len(orig), detection)
}

// Boundary scores the flows outside a bin's original top list against it:
// the §7 detection metric is the sum of their scores, and the §5 ranking
// metric adds the pairs inside the list. A sum over any partition of the
// flows is the same, so shards holding disjoint sets of flows can each
// sum their own.
type Boundary struct {
	top      []sizePair
	ts       []int64 // the top flows' sampled counts, ascending
	smallest int64   // the top list's smallest original size
	reach    int64   // its smallest nonzero sampled count, MaxInt64 if none
}

// NewBoundary returns the scorer of a bin whose original top list is top,
// in ranking order, with sampled[i] the sampled count of top[i].
func NewBoundary(top []flowtable.Entry, sampled []int64) Boundary {
	var b Boundary
	b.Reset(top, sampled)
	return b
}

// Reset makes b the scorer NewBoundary(top, sampled) returns, reusing b's
// arrays when they are long enough: a caller scoring bin after bin
// allocates nothing once its longest list has been seen.
func (b *Boundary) Reset(top []flowtable.Entry, sampled []int64) {
	b.top, b.ts = b.top[:0], append(b.ts[:0], sampled[:len(top)]...)
	b.smallest, b.reach = 0, math.MaxInt64
	for r := range top {
		b.top = append(b.top, sizePair{top[r].Packets, sampled[r]})
		if s := sampled[r]; s > 0 {
			b.reach = min(b.reach, s)
		}
	}
	slices.Sort(b.ts)
	if len(top) > 0 {
		b.smallest = top[len(top)-1].Packets
	}
}

// Score returns the number of top flows that sampling misranks a flow
// outside the list against: orig is the flow's original size, at most the
// list's smallest, and sampled its sampled size.
//
//flowrank:hotpath
func (b *Boundary) Score(orig, sampled int64) int64 {
	if orig < b.smallest {
		// Smaller than every top flow — nearly all of a bin: misranked
		// against a top flow exactly when its sampled count reaches the top
		// flow's, so it scores how many of the sorted ts it reaches.
		n := 0
		for n < len(b.ts) && b.ts[n] <= sampled {
			n++
		}
		return int64(n)
	}
	var swapped int64
	c := sizePair{orig, sampled}
	for _, a := range b.top {
		if a.swappedWith(c) {
			swapped++
		}
	}
	return swapped
}

// Reach returns the top list's smallest nonzero sampled count, or
// math.MaxInt64 when sampling missed every top flow: a flow outside the
// list sampled below it scores Score(orig, 0), as if sampling missed it.
func (b *Boundary) Reach() int64 { return b.reach }

// Pairs returns the metrics of a bin of n flows whose flows outside the
// list score detection in sum.
func (b *Boundary) Pairs(n int, detection int64) PairCounts {
	t := min(len(b.top), n)
	if t <= 0 || n < 2 {
		return PairCounts{}
	}
	nn, tt := int64(n), int64(t)
	return PairCounts{
		Ranking:       countWithin(b.top) + detection,
		Detection:     detection,
		Pairs:         (2*nn - tt - 1) * tt / 2,
		BoundaryPairs: tt * (nn - tt),
	}
}

// countWithin counts the swapped pairs inside the top list.
func countWithin(top []sizePair) int64 {
	var swapped int64
	for r := range top {
		for _, b := range top[r+1:] {
			if top[r].swappedWith(b) {
				swapped++
			}
		}
	}
	return swapped
}

// sizePair is a flow's original and sampled packet count.
type sizePair struct{ orig, sampled int64 }

// swappedWith reports whether sampling misranks a against b, a flow of
// equal or smaller original size (the package conventions above).
func (a sizePair) swappedWith(b sizePair) bool {
	if a.orig == b.orig {
		return a.sampled != b.sampled || a.sampled == 0
	}
	return b.sampled >= a.sampled
}

// TopKOverlap returns |top-k(orig) ∩ top-k(sampled)| / k — the fraction of
// true heavy hitters that survive in the sampled top-k list. orig and
// sampled must both be sorted by flowtable.Less.
func TopKOverlap(orig, sampled []flowtable.Entry, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(orig) {
		k = len(orig)
	}
	want := make(map[flow.Key]struct{}, k)
	for i := 0; i < k; i++ {
		want[orig[i].Key] = struct{}{}
	}
	hits := 0
	for i := 0; i < k && i < len(sampled); i++ {
		if _, ok := want[sampled[i].Key]; ok {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// RunningStat accumulates mean and standard deviation with Welford's
// algorithm; it summarizes a metric across simulation runs.
type RunningStat struct {
	n    int64
	mean float64
	m2   float64
}

// Add accumulates one observation.
func (r *RunningStat) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *RunningStat) N() int64 { return r.n }

// Mean returns the running mean.
func (r *RunningStat) Mean() float64 { return r.mean }

// Var returns the unbiased sample variance.
func (r *RunningStat) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *RunningStat) Std() float64 { return math.Sqrt(r.Var()) }

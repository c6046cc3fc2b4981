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
// is accepted but not needed; flowtable.SelectTop establishes exactly
// this. sampled maps flow keys to sampled packet counts; missing keys
// mean the flow was not sampled at all.
//
// This map form is the API for callers holding their own tables and the
// reference CountSwappedCounts is tested against; the stream engine joins
// each flow's sampled count in its shard and calls CountSwappedCounts.
func CountSwapped(orig []flowtable.Entry, sampled map[flow.Key]int64, t int) PairCounts {
	pc, t := pairTotals(len(orig), t)
	if pc.Pairs == 0 {
		return pc
	}
	top := make([]sizePair, t)
	for r := range top {
		top[r] = sizePair{orig[r].Packets, sampled[orig[r].Key]}
	}
	pc.Detection = countBoundary(top, orig[t:], sampled)
	pc.Ranking = countWithin(top) + pc.Detection
	return pc
}

// pairTotals clamps t to the bin's n flows and returns the pair totals of
// a bin of that shape; Pairs is 0 exactly when there is nothing to count
// (t <= 0 or n < 2).
func pairTotals(n, t int) (PairCounts, int) {
	t = min(t, n)
	if t <= 0 || n < 2 {
		return PairCounts{}, t
	}
	nn, tt := int64(n), int64(t)
	return PairCounts{Pairs: (2*nn - tt - 1) * tt / 2, BoundaryPairs: tt * (nn - tt)}, t
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

// countBoundary counts the swapped pairs between the top list and the
// flows below it, one sampled lookup per flow: the pass over a bin's
// whole flow list, so it walks the list once and keeps the top flows'
// sizes in the small slice.
//
//flowrank:hotpath
func countBoundary(top []sizePair, rest []flowtable.Entry, sampled map[flow.Key]int64) int64 {
	var swapped int64
	for i := range rest {
		b := sizePair{rest[i].Packets, sampled[rest[i].Key]}
		for _, a := range top {
			if a.swappedWith(b) {
				swapped++
			}
		}
	}
	return swapped
}

// CountSwappedCounts is CountSwapped with the sampled counts supplied as a
// slice aligned with orig (sampled[i] is the sampled size of orig[i]) —
// no map and no lookup: what the stream engine and the simulators count
// a bin with.
func CountSwappedCounts(orig []flowtable.Entry, sampled []int64, t int) PairCounts {
	pc, t := pairTotals(len(orig), t)
	if pc.Pairs == 0 {
		return pc
	}
	sampled = sampled[:len(orig)]
	top := make([]sizePair, t)
	for r := range top {
		top[r] = sizePair{orig[r].Packets, sampled[r]}
	}
	ts := slices.Clone(sampled[:t])
	slices.Sort(ts)
	pc.Detection = countBoundaryCounts(top, ts, orig[t:], sampled[t:])
	pc.Ranking = countWithin(top) + pc.Detection
	return pc
}

// countBoundaryCounts is countBoundary over aligned counts: one pass over
// the flows below the top list. A flow smaller than every top flow —
// nearly all of a bin — is misranked against a top flow exactly when its
// sampled count reaches the top flow's, so it is scored by how many of the
// top flows' sampled counts, sorted in ts, it reaches.
//
//flowrank:hotpath
func countBoundaryCounts(top []sizePair, ts []int64, rest []flowtable.Entry, sampled []int64) int64 {
	var swapped int64
	sampled = sampled[:len(rest)]
	smallest := top[0].orig
	for _, a := range top {
		smallest = min(smallest, a.orig)
	}
	for i := range rest {
		b := sizePair{rest[i].Packets, sampled[i]}
		if b.orig < smallest {
			n := 0
			for n < len(ts) && ts[n] <= b.sampled {
				n++
			}
			swapped += int64(n)
			continue
		}
		for _, a := range top {
			if a.swappedWith(b) {
				swapped++
			}
		}
	}
	return swapped
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

// Merge combines another accumulator into this one (parallel reduction).
func (r *RunningStat) Merge(o RunningStat) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	nA, nB := float64(r.n), float64(o.n)
	delta := o.mean - r.mean
	total := nA + nB
	r.mean += delta * nB / total
	r.m2 += o.m2 + delta*delta*nA*nB/total
	r.n += o.n
}

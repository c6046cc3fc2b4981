package core

import (
	"math"

	"flowrank/internal/numeric"
)

// modelEval is the per-evaluation engine behind Model.RankingMetric and
// Model.DetectionMetric: one metric computation at one sampling rate. It
// owns the state that makes a single evaluation fast but must not leak
// between evaluations — today, the exact-kernel memo.
//
// The hybrid kernel rounds continuous sizes to integers before calling
// misrankExactTrunc, and the adaptive inner quadrature evaluates the
// integrand at thousands of points that collapse onto the same integer
// pair: at p = 0.1% a single ranking evaluation performs ~23M exact-kernel
// calls over only ~500K distinct (s1, s2) pairs. Memoizing the exact
// values cut the kernels ablation experiment from 30.2s to 9.5s (~3x
// wall time; ~4x once pairTable replaced the generic map) while remaining
// bit-identical — a hit returns the very float64 the kernel produced.
//
// A modelEval is confined to the goroutine that created it; Model stays
// immutable and safe for concurrent use because every metric call builds
// its own evaluation.
type modelEval struct {
	m Model
	p float64
	// memo caches misrankExactTrunc(s1, s2, p) keyed by the packed pair;
	// lastKey/lastVal front it because the adaptive quadrature evaluates
	// runs of neighboring points that round to the same pair. Allocated
	// on first use so the Gaussian kernel pays nothing.
	memo    pairTable
	lastKey uint64
	lastVal float64
	// noMemo disables the memo (cross-check tests only).
	noMemo bool
}

// maxMemoSize bounds the sizes packed into a memo key. Larger sizes
// (possible only at extreme hybridThreshold/p ratios) bypass the
// memo instead of being packed.
const maxMemoSize = 1 << 31

// disableKernelMemo turns the exact-kernel memo off process-wide. It is a
// cross-check hook for tests that pin the memoized metrics to the
// memo-free baseline; production code never sets it.
var disableKernelMemo bool

func (m Model) newEval(p float64) *modelEval {
	return &modelEval{m: m, p: p, noMemo: disableKernelMemo}
}

// kernel returns the misranking probability for continuous sizes
// small <= large under the model's kernel selection.
func (e *modelEval) kernel(small, large float64) float64 {
	if e.m.Kernel == KernelHybrid && e.p*small < hybridThreshold {
		s1 := int(math.Round(small))
		if s1 < 1 {
			s1 = 1
		}
		s2 := int(math.Round(large))
		if s2 < 1 {
			s2 = 1
		}
		if e.noMemo || s1 >= maxMemoSize || s2 >= maxMemoSize {
			return misrankExactTrunc(s1, s2, e.p)
		}
		key := uint64(s1)<<32 | uint64(s2)
		if key == e.lastKey {
			return e.lastVal
		}
		v, ok := e.memo.get(key)
		if !ok {
			v = misrankExactTrunc(s1, s2, e.p)
			e.memo.put(key, v)
		}
		e.lastKey, e.lastVal = key, v
		return v
	}
	return misrankKernel(small, large, e.p)
}

// pairTable is a minimal open-addressing hash table from packed size
// pairs to kernel values. The evaluation hot loop performs tens of
// millions of lookups per metric call, where the generic map's hashing
// and bucket probing dominated the profile; linear probing over a
// power-of-two slot array with a multiplicative hash cuts that overhead
// several-fold. Keys are never zero (both sizes are >= 1), so zero marks
// an empty slot.
type pairTable struct {
	keys []uint64
	vals []float64
	n    int
}

func pairHash(k uint64) uint64 {
	k *= 0x9e3779b97f4a7c15 // Fibonacci hashing: spread consecutive pairs
	return k ^ (k >> 29)
}

func (t *pairTable) get(k uint64) (float64, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := pairHash(k) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return t.vals[i], true
		case 0:
			return 0, false
		}
	}
}

func (t *pairTable) put(k uint64, v float64) {
	if len(t.keys) == 0 {
		t.grow(1 << 13)
	} else if 4*(t.n+1) > 3*len(t.keys) { // resize beyond 3/4 load
		t.grow(2 * len(t.keys))
	}
	mask := uint64(len(t.keys) - 1)
	i := pairHash(k) & mask
	for t.keys[i] != 0 && t.keys[i] != k {
		i = (i + 1) & mask
	}
	if t.keys[i] == 0 {
		t.n++
	}
	t.keys[i] = k
	t.vals[i] = v
}

func (t *pairTable) grow(size int) {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, size)
	t.vals = make([]float64, size)
	mask := uint64(size - 1)
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := pairHash(k) & mask
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i] = k
		t.vals[i] = oldVals[j]
	}
}

// innerBelow computes ∫_u^1 Pm(y(v), x) dv — the misranking mass against
// all flows smaller than x — in logarithmic quantile space v = u·e^s, which
// resolves both the sharp erfc kernel near y ≈ x and the slowly varying
// bulk of small flows with one adaptive rule.
func (e *modelEval) innerBelow(u, x float64) float64 {
	if u >= 1 {
		return 0
	}
	smax := math.Log(1 / u)
	f := func(s float64) float64 {
		v := u * math.Exp(s)
		if v > 1 {
			v = 1
		}
		y := e.m.Dist.QuantileCCDF(v)
		return v * e.kernel(y, x)
	}
	return numeric.AdaptiveSimpson(f, 0, smax, innerTol, 48)
}

// innerAbove computes ∫_{vcut}^u Pm(x, y(v)) dv — the misranking mass
// against larger flows — again in logarithmic quantile space v = u·e^{-s}.
// The integral is truncated at the size beyond which the kernel is below
// ~1e-18 (larger flows are essentially never outranked by x).
func (e *modelEval) innerAbove(u, x float64) float64 {
	// Solve (y-x)/sqrt(2(1/p-1)(x+y)) = z* for y = x + Δ:
	// Δ² = 2 z*² (1/p-1) (2x + Δ).
	const zstar = 6.5 // erfc(6.5) ≈ 3e-20
	c2 := 2 * zstar * zstar * (1/e.p - 1)
	delta := (c2 + math.Sqrt(c2*c2+8*c2*x)) / 2
	vcut := e.m.Dist.CCDF(x + delta)
	if vcut < u*1e-30 {
		vcut = u * 1e-30
	}
	if vcut >= u {
		return 0
	}
	smax := math.Log(u / vcut)
	f := func(s float64) float64 {
		v := u * math.Exp(-s)
		y := e.m.Dist.QuantileCCDF(v)
		return v * e.kernel(x, y)
	}
	return numeric.AdaptiveSimpson(f, 0, smax, innerTol, 48)
}

// innerDetect computes ∫_u^1 P*t(v, u) · Pm(y(v), x) dv for the detection
// model: misranking of x (a top-T candidate) against smaller flows,
// weighted by the probability that the pair actually straddles the top-T
// boundary.
func (e *modelEval) innerDetect(pmfBig []float64, u, x float64) float64 {
	if u >= 1 {
		return 0
	}
	smax := math.Log(1 / u)
	f := func(s float64) float64 {
		v := u * math.Exp(s)
		if v > 1 {
			v = 1
		}
		y := e.m.Dist.QuantileCCDF(v)
		kern := e.kernel(y, x)
		if kern == 0 {
			return 0
		}
		return v * kern * JointTopProb(pmfBig, v, u, e.m.T, e.m.N, e.m.PoissonTails)
	}
	return numeric.AdaptiveSimpson(f, 0, smax, innerTol, 48)
}

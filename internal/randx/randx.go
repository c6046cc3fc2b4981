// Package randx provides the reproducible random-variate generation the
// simulators are built on: deterministic seedable streams that can be split
// into independent sub-streams, and an exact (not normal-approximated)
// binomial sampler together with the heavy-tailed flow-size laws used by the
// paper (Pareto, exponential, lognormal).
//
// Exactness of the binomial sampler matters here: the whole point of the
// trace-driven fast path (internal/sim) is that thinning a flow's per-bin
// packet count n with probability p is *distributionally identical* to
// sampling each packet i.i.d. A normal-approximate sampler would silently
// distort exactly the small-count flows whose ties and zeros drive the
// paper's misranking metric.
package randx

import (
	"math"
	"math/rand/v2"

	"flowrank/internal/numeric"
)

// RNG is a deterministic random stream. It wraps math/rand/v2's PCG
// generator and adds the distribution samplers the simulators need.
type RNG struct {
	r *rand.Rand
	// seed material retained so the stream can be split.
	s1, s2 uint64
}

// New returns a stream seeded from seed. Equal seeds give equal streams.
func New(seed uint64) *RNG {
	s1 := splitmix64(seed)
	s2 := splitmix64(s1)
	return &RNG{r: rand.New(rand.NewPCG(s1, s2)), s1: s1, s2: s2}
}

// Derive returns an independent stream keyed by (the parent's seed, id).
// Streams derived with different ids are statistically independent of each
// other and of the parent; deriving the same id twice yields equal streams.
// The parent's state is not consumed.
func (g *RNG) Derive(id uint64) *RNG { return New(g.derivedSeed(id)) }

// DerivePCG returns the stream Derive(id) returns as a PCG value: its
// Float64 and Uint64 sequences are Derive(id)'s, and deriving it allocates
// nothing.
func (g *RNG) DerivePCG(id uint64) PCG {
	// New's seeding, without the *rand.Rand.
	s1 := splitmix64(g.derivedSeed(id))
	var p PCG
	p.src.Seed(s1, splitmix64(s1))
	return p
}

func (g *RNG) derivedSeed(id uint64) uint64 {
	return splitmix64(g.s1^splitmix64(id+Golden)) ^ g.s2
}

// Golden is splitmix64's increment, 2^64 divided by the golden ratio: the
// step between the seeds a counter of streams hands to Mix64.
const Golden = 0x9e3779b97f4a7c15

// Mix64 is splitmix64's finalizer: a bijection of 64-bit words whose every
// output bit depends on every input bit. It is the module's one copy of
// it: seed derivation here, the per-bin stream ids of tracegen and
// netsample, Count-Min's row hashes.
//
//flowrank:hotpath
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// splitmix64 is one step of the splitmix64 generator from state x.
func splitmix64(x uint64) uint64 { return Mix64(x + Golden) }

// PCG is a uniform stream held by value: math/rand/v2's PCG generator
// without the *rand.Rand around it, for a caller that keeps one small
// stream per item in a slice (packetgen's flows) and draws from it with
// direct calls. Obtain one with RNG.DerivePCG; its zero value is a valid
// but fixed stream.
type PCG struct{ src rand.PCG }

// Uint64 returns a uniform 64-bit value.
func (p *PCG) Uint64() uint64 { return p.src.Uint64() }

// Float64 returns a uniform variate in [0, 1), by (*rand.Rand).Float64's
// formula, so it equals what the *RNG this PCG was derived as would draw.
func (p *PCG) Float64() float64 { return float64(p.src.Uint64()<<11>>11) / (1 << 53) }

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Binomial returns an exact Binomial(n, p) variate.
//
// Small n uses a direct Bernoulli loop. Otherwise the variate is drawn by
// CDF inversion started at the distribution mode: the CDF at the mode is
// computed once through the regularized incomplete beta function and the
// walk outward uses the pmf ratio recurrence, costing O(sqrt(n p (1-p)))
// expected steps. Both paths are exact.
func (g *RNG) Binomial(n int, p float64) int {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	case p > 0.5:
		return n - g.Binomial(n, 1-p)
	case n <= 32:
		k := 0
		for i := 0; i < n; i++ {
			if g.r.Float64() < p {
				k++
			}
		}
		return k
	}
	return g.binomialModeInversion(n, p)
}

func (g *RNG) binomialModeInversion(n int, p float64) int {
	mode := int(float64(n+1) * p)
	if mode > n {
		mode = n
	}
	u := g.r.Float64()
	cdfMode := numeric.BinomialCDF(mode, n, p)
	pmf := numeric.BinomialPMF(mode, n, p)
	q := 1 - p
	if u <= cdfMode {
		// Walk downward from the mode: find smallest k with F(k) >= u.
		cdf := cdfMode
		k := mode
		f := pmf
		for k > 0 {
			if cdf-f < u {
				return k
			}
			cdf -= f
			// pmf(k-1) = pmf(k) * k*q / ((n-k+1)*p)
			f *= float64(k) * q / (float64(n-k+1) * p)
			k--
		}
		return 0
	}
	// Walk upward from the mode.
	cdf := cdfMode
	k := mode
	f := pmf
	for k < n {
		// pmf(k+1) = pmf(k) * (n-k)*p / ((k+1)*q)
		f *= float64(n-k) * p / (float64(k+1) * q)
		k++
		cdf += f
		if cdf >= u {
			return k
		}
		if f == 0 {
			// Numerical underflow deep in the tail; the remaining mass is
			// below representable resolution.
			break
		}
	}
	return k
}

// Pareto returns a Pareto(scale a, shape beta) variate: values exceed a and
// P{X > x} = (x/a)^-beta.
func (g *RNG) Pareto(a, beta float64) float64 {
	u := 1 - g.r.Float64() // in (0, 1]
	return a * math.Pow(u, -1/beta)
}

// Exponential returns an exponential variate with the given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return mean * g.r.ExpFloat64()
}

// Lognormal returns exp(N(mu, sigma^2)).
func (g *RNG) Lognormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r.NormFloat64())
}

// Uniform returns a uniform variate in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Multinomial distributes n trials over the len(ps) categories with the
// given probabilities (which must sum to approximately one) and appends the
// per-category counts to dst. It draws len(ps)-1 binomials with renormalised
// conditionals, which is exact.
func (g *RNG) Multinomial(dst []int, n int, ps []float64) []int {
	remainingN := n
	remainingP := 1.0
	for i, p := range ps {
		if i == len(ps)-1 {
			dst = append(dst, remainingN)
			break
		}
		if remainingN == 0 {
			dst = append(dst, 0)
			continue
		}
		cond := p / remainingP
		if cond > 1 {
			cond = 1
		}
		k := g.Binomial(remainingN, cond)
		dst = append(dst, k)
		remainingN -= k
		remainingP -= p
		if remainingP <= 0 {
			remainingP = math.SmallestNonzeroFloat64
		}
	}
	return dst
}

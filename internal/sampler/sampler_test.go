package sampler

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
	"flowrank/internal/randx"
)

func mkPacket(i int) packet.Packet {
	return packet.Packet{
		Time: float64(i) * 1e-4,
		Key: flow.Key{
			Src: flow.Addr{10, 0, byte(i >> 8), byte(i)}, Dst: flow.Addr{10, 1, 1, 1},
			SrcPort: uint16(i), DstPort: 80, Proto: flow.ProtoTCP,
		},
		Size: 500,
	}
}

func TestBernoulliRate(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.5} {
		s := NewBernoulli(p, 42)
		const n = 500000
		kept := 0
		for i := 0; i < n; i++ {
			if s.Sample(mkPacket(i)) {
				kept++
			}
		}
		got := float64(kept) / n
		se := math.Sqrt(p * (1 - p) / n)
		if math.Abs(got-p) > 6*se {
			t.Errorf("rate %g: kept %g", p, got)
		}
		if s.Rate() != p {
			t.Errorf("Rate() = %g", s.Rate())
		}
	}
}

// gapReference decides one packet at a time by the rule Bernoulli's
// comment states, from the stream randx.New(seed).Derive(run) draws: below
// gapBelow it counts down a gap of floor(log(U)/log(1-p)) packets, U =
// Float64() + 2^-53, drawn at the first packet decided at a rate and after
// each kept one, and redrawn when the rate changes; from gapBelow up it
// keeps a packet when Float64() < p; at 0, 1 and NaN it draws nothing, and
// any rate off the gap path discards the pending gap.
type gapReference struct {
	rng *randx.RNG
	gap int64 // packets to drop before the next kept one; -1 when none is pending
	at  float64
}

func newGapReference(seed, run uint64) *gapReference {
	return &gapReference{rng: randx.New(seed).Derive(run), gap: -1}
}

func (r *gapReference) decide(p float64) bool {
	switch {
	case !(p > 0):
		r.gap = -1
		return false
	case p >= 1:
		r.gap = -1
		return true
	case p >= gapBelow:
		r.gap = -1
		return r.rng.Float64() < p
	}
	if r.gap < 0 || p != r.at {
		r.at, r.gap = p, r.draw(p)
	}
	if r.gap > 0 {
		r.gap--
		return false
	}
	r.gap = r.draw(p)
	return true
}

func (r *gapReference) draw(p float64) int64 {
	return int64(math.Floor(math.Log(r.rng.Float64()+0x1p-53) / math.Log1p(-p)))
}

// TestBernoulliMatchesGapReference pins the sampler's decisions to
// gapReference's: the first 10^6 at rates on both sides of gapBelow and at
// the two that draw nothing, then after a Reset to another run, and across
// rates changed mid-stream — as the adaptive loop retunes P between bins —
// through 0, 1 and NaN, and between two rates that both draw gaps. Each
// check runs once per packet through Sample and once through SampleBlock,
// in blocks of 1, 2, 7 and 256 and in random splits, so the pending gap
// carries across calls. The first kept packets at p = 0.01 pin the stream
// itself.
func TestBernoulliMatchesGapReference(t *testing.T) {
	const seed, n = 977, 1_000_000
	for _, split := range blockSplits() {
		check := func(label string, s *Bernoulli, ref *gapReference, p float64, n int) {
			t.Helper()
			s.P = p
			got := split.decide(s, n)
			for i := range n {
				if want := ref.decide(p); got[i] != want {
					t.Fatalf("%s, %s: decision %d at p=%g is %v, the reference's %v", split.name, label, i, p, got[i], want)
				}
			}
		}
		for _, p := range []float64{0, 1e-4, 0.01, 0.1, 0.5, 1} {
			s := NewBernoulli(p, seed)
			check("run 0", s, newGapReference(seed, 0), p, n)
			s.Reset(3)
			check("run 3", s, newGapReference(seed, 3), p, n)
		}
		s, ref := NewBernoulli(0.01, seed), newGapReference(seed, 0)
		for _, p := range []float64{0.01, 0.5, 0.01, 0, 1e-4, math.NaN(), 1e-4, 1, 0.2, 0.01, 0.1, 0.003} {
			check("rate changes", s, ref, p, n/10+3) // no block length divides it: the last block is partial
		}
	}
	var first []int
	s := NewBernoulli(0.01, seed)
	for i := 0; len(first) < 8; i++ {
		if s.Sample(packet.Packet{}) {
			first = append(first, i)
		}
	}
	if want := []int{1, 18, 57, 111, 193, 426, 471, 487}; !slices.Equal(first, want) {
		t.Errorf("first kept packets at p=0.01, seed %d: %v, want %v", seed, first, want)
	}
}

// TestBernoulliKeptCountsAndGaps is the designed-power check that the
// decisions are i.i.d. Bernoulli(p), drawn as the engine draws them (256
// packets a SampleBlock call): at p in {1e-4, 0.01, 0.5, 1}, the kept
// counts of fixed windows of w packets are Binomial(w, p) — their sum and
// their dispersion — and the gaps between kept packets are geometric, a
// chi-square over classes of equal probability; across mid-stream rate
// changes, each phase keeps Binomial counts and the first kept packet of a
// phase lies a geometric gap, at the phase's rate, from its start.
//
// Every statistic is a z-score or a Wilson–Hilferty normalised
// chi-square, bounded at 4.5: a one-sided false alarm of 3.4e-6, at most
// 6.8e-6 two-sided. The test makes fewer than 30 such checks, so a correct
// sampler fails it for fewer than 2 seeds in 10^4 (Bonferroni). The
// rate-change phases are built to catch a sampler that keeps the gap it
// drew at the previous rate: 200 phases of 64 packets at p = 0.1 after
// 2000 at p = 1e-4 expect 1280 kept packets, and a stale gap (mean 10^4)
// leaves almost all of them empty, a z-score near -35.
func TestBernoulliKeptCountsAndGaps(t *testing.T) {
	const bound = 4.5
	for _, c := range []struct {
		p    float64
		w, m int // window length and count
	}{{1e-4, 100_000, 200}, {0.01, 1000, 1000}, {0.5, 256, 4000}, {1, 256, 100}} {
		s := NewBernoulli(c.p, 31)
		counts := make([]int, c.m)
		var gaps []int64
		last := int64(-1)
		kept := make([]bool, 256)
		for i, n := 0, c.w*c.m; i < n; i += len(kept) {
			blk := kept[:min(len(kept), n-i)]
			s.SampleBlock(blk)
			for j, k := range blk {
				if k {
					counts[(i+j)/c.w]++
					gaps = append(gaps, int64(i+j)-last-1)
					last = int64(i + j)
				}
			}
		}
		name := fmt.Sprintf("p=%g", c.p)
		if c.p == 1 {
			for i, k := range counts {
				if k != c.w {
					t.Errorf("%s: window %d kept %d of %d", name, i, k, c.w)
				}
			}
			continue
		}
		checkBinomial(t, name, counts, c.w, c.p, bound)
		checkGeometric(t, name+" gaps", gaps, c.p, bound)
	}

	// Phases alternate between a long one at 1e-4 and a short one at 0.1
	// (both draw gaps), every fifth short one at 0.5 instead (compares).
	s := NewBernoulli(1e-4, 32)
	kept := make([]bool, 256)
	phase := func(p float64, n int) (k int, first int64) {
		s.P, first = p, -1
		for i := 0; i < n; i += len(kept) {
			blk := kept[:min(len(kept), n-i)]
			s.SampleBlock(blk)
			for j, x := range blk {
				if x {
					k++
					if first < 0 {
						first = int64(i + j)
					}
				}
			}
		}
		return k, first
	}
	var long, short []int
	var firsts []int64
	for r := range 250 {
		k, _ := phase(1e-4, 2000)
		long = append(long, k)
		if r%5 == 4 {
			phase(0.5, 64)
			continue
		}
		k, first := phase(0.1, 64)
		short = append(short, k)
		if first >= 0 {
			firsts = append(firsts, first)
		}
	}
	checkBinomial(t, "rate changes, 2000 at p=1e-4", long, 2000, 1e-4, bound)
	checkBinomial(t, "rate changes, 64 at p=0.1", short, 64, 0.1, bound)
	// A phase at 0.1 keeps nothing with probability 0.9^64 = 0.1 %, so the
	// first kept packet's index is a geometric gap with a negligible cut.
	checkGeometric(t, "rate changes, first kept at p=0.1", firsts, 0.1, bound)
}

// checkBinomial tests window counts against Binomial(w, p): their sum by a
// z-score, and their dispersion, sum (k-wp)^2 / wpq over the windows, by
// its exact mean (the window count) and variance, from the binomial's
// fourth central moment wpq(1 + 3(w-2)pq).
func checkBinomial(t *testing.T, name string, counts []int, w int, p, bound float64) {
	t.Helper()
	m, q := float64(len(counts)), 1-p
	mu, v := float64(w)*p, float64(w)*p*q
	sum, disp := 0.0, 0.0
	for _, k := range counts {
		sum += float64(k)
		disp += (float64(k) - mu) * (float64(k) - mu) / v
	}
	if z := (sum - m*mu) / math.Sqrt(m*v); math.Abs(z) > bound {
		t.Errorf("%s: %g kept in %g windows of %d, expected %g: z = %.1f", name, sum, m, w, m*mu, z)
	}
	perWindow := (1+3*float64(w-2)*p*q)/v - 1
	if z := (disp - m) / math.Sqrt(m*perWindow); math.Abs(z) > bound {
		t.Errorf("%s: window counts disperse %.3g times the binomial's: z = %.1f", name, disp/m, z)
	}
}

// checkGeometric tests gaps against the geometric law P{gap >= k} = q^k
// with a Pearson chi-square over up to 10 classes of near-equal
// probability, normalised by Wilson–Hilferty.
func checkGeometric(t *testing.T, name string, gaps []int64, p, bound float64) {
	t.Helper()
	lq := math.Log1p(-p)
	var lo []int64 // class j holds gaps in [lo[j], lo[j+1])
	for j := range 10 {
		k := int64(math.Ceil(math.Log(1-float64(j)/10) / lq))
		if len(lo) == 0 || k > lo[len(lo)-1] {
			lo = append(lo, k)
		}
	}
	obs := make([]float64, len(lo))
	for _, g := range gaps {
		j, _ := slices.BinarySearch(lo, g+1)
		obs[j-1]++
	}
	n, chi := float64(len(gaps)), 0.0
	for j := range lo {
		pr := math.Exp(float64(lo[j]) * lq)
		if j+1 < len(lo) {
			pr -= math.Exp(float64(lo[j+1]) * lq)
		}
		chi += (obs[j] - n*pr) * (obs[j] - n*pr) / (n * pr)
	}
	df := float64(len(lo) - 1)
	c := 2 / (9 * df)
	if z := (math.Cbrt(chi/df) - (1 - c)) / math.Sqrt(c); z > bound {
		t.Errorf("%s: %g gaps, chi-square %.1f on %g degrees of freedom: z = %.1f", name, n, chi, df, z)
	}
}

// TestPeriodicBlocksMatchSample pins Periodic's SampleBlock to its Sample:
// the same decisions in blocks of 1, 2, 7 and 256 and in random splits, at
// several periods, after a Reset, and across a period changed between
// blocks.
func TestPeriodicBlocksMatchSample(t *testing.T) {
	const seed, n = 977, 100_000
	for _, split := range blockSplits() {
		check := func(label string, s, ref *Periodic, every, n int) {
			t.Helper()
			s.Every, ref.Every = every, every
			got := split.decide(s, n)
			for i := range n {
				if want := ref.Sample(packet.Packet{}); got[i] != want {
					t.Fatalf("%s, %s: decision %d at 1-in-%d is %v, Sample's %v", split.name, label, i, every, got[i], want)
				}
			}
		}
		for _, every := range []int{1, 2, 7, 100, 10_000} {
			s, ref := NewPeriodic(every, seed), NewPeriodic(every, seed)
			check("run 0", s, ref, every, n)
			s.Reset(3)
			ref.Reset(3)
			check("run 3", s, ref, every, n)
		}
		s, ref := NewPeriodic(100, seed), NewPeriodic(100, seed)
		for _, every := range []int{100, 3, 1, 1000, 7} {
			check("period changes", s, ref, every, n/10+3)
		}
	}
}

// blockSplit cuts a run of decisions into SampleBlock calls.
type blockSplit struct {
	name   string
	decide func(s Sampler, n int) []bool
}

// blockSplits returns the splits the block tests run: one Sample per
// packet, SampleBlock at fixed lengths, and SampleBlock at random lengths
// up to 300, empty blocks included.
func blockSplits() []blockSplit {
	splits := []blockSplit{{"Sample", func(s Sampler, n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = s.Sample(packet.Packet{})
		}
		return out
	}}}
	blocks := func(next func() int) func(s Sampler, n int) []bool {
		return func(s Sampler, n int) []bool {
			out := make([]bool, n)
			for rest := out; len(rest) > 0; {
				k := min(next(), len(rest))
				s.SampleBlock(rest[:k])
				rest = rest[k:]
			}
			return out
		}
	}
	for _, k := range []int{1, 2, 7, 256} {
		splits = append(splits, blockSplit{fmt.Sprintf("blocks of %d", k), blocks(func() int { return k })})
	}
	rng := randx.New(5)
	splits = append(splits, blockSplit{"random blocks", blocks(func() int { return rng.IntN(301) })})
	return splits
}

func TestBernoulliRunsIndependentAndReproducible(t *testing.T) {
	s1 := NewBernoulli(0.3, 7)
	s2 := NewBernoulli(0.3, 7)
	s1.Reset(5)
	s2.Reset(5)
	for i := 0; i < 1000; i++ {
		p := mkPacket(i)
		if s1.Sample(p) != s2.Sample(p) {
			t.Fatal("same seed+run must give identical decisions")
		}
	}
	s2.Reset(6)
	same := 0
	s1.Reset(5)
	for i := 0; i < 1000; i++ {
		p := mkPacket(i)
		if s1.Sample(p) == s2.Sample(p) {
			same++
		}
	}
	// Independent runs agree on ~(p^2 + q^2) of decisions, not all.
	if same > 900 {
		t.Errorf("different runs agreed on %d/1000 decisions", same)
	}
}

// TestBernoulliRejectsBadRate: a rate above 1, below 0 or NaN panics at
// construction, naming the interval; a NaN fails every comparison, so a
// check written as p < 0 || p > 1 would let it through.
func TestBernoulliRejectsBadRate(t *testing.T) {
	for _, p := range []float64{1.5, -0.1, math.NaN()} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "outside [0,1]") {
					t.Errorf("NewBernoulli(%g): recovered %v, want a panic naming [0,1]", p, r)
				}
			}()
			NewBernoulli(p, 1)
		}()
	}
}

func TestBernoulliEdgeRates(t *testing.T) {
	s0 := NewBernoulli(0, 1)
	s1 := NewBernoulli(1, 1)
	for i := 0; i < 100; i++ {
		if s0.Sample(mkPacket(i)) {
			t.Fatal("p=0 sampled a packet")
		}
		if !s1.Sample(mkPacket(i)) {
			t.Fatal("p=1 dropped a packet")
		}
	}
}

func TestPeriodicExactCount(t *testing.T) {
	s := NewPeriodic(100, 3)
	const n = 100000
	kept := 0
	for i := 0; i < n; i++ {
		if s.Sample(mkPacket(i)) {
			kept++
		}
	}
	if kept != n/100 {
		t.Errorf("kept %d of %d with 1-in-100", kept, n)
	}
	if s.Rate() != 0.01 {
		t.Errorf("Rate() = %g", s.Rate())
	}
}

func TestPeriodicPhaseVariesAcrossRuns(t *testing.T) {
	s := NewPeriodic(10, 9)
	firstKept := func() int {
		for i := 0; ; i++ {
			if s.Sample(mkPacket(i)) {
				return i
			}
		}
	}
	phases := map[int]bool{}
	for run := uint64(0); run < 20; run++ {
		s.Reset(run)
		phases[firstKept()] = true
	}
	if len(phases) < 3 {
		t.Errorf("only %d distinct phases over 20 runs", len(phases))
	}
}

func TestSamplerStrings(t *testing.T) {
	if NewBernoulli(0.25, 1).String() != "bernoulli(p=0.25)" {
		t.Error("bernoulli label")
	}
	if NewPeriodic(8, 1).String() != "periodic(1-in-8)" {
		t.Error("periodic label")
	}
}

// BenchmarkSampler times a Bernoulli decision in ns/pkt: one Sample call
// per packet at p = 0.01, the rate daemon-scrape samples at, and one
// SampleBlock call per 256 packets, the block the stream engine draws, at
// rates from 1e-4 to 0.99 on both sides of gapBelow.
func BenchmarkSampler(b *testing.B) {
	const block = 256
	b.Run("Sample", func(b *testing.B) {
		var s Sampler = NewBernoulli(0.01, 1)
		var p packet.Packet
		kept := 0
		for b.Loop() {
			for range block {
				if s.Sample(p) {
					kept++
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block), "ns/pkt")
		sink = kept
	})
	for _, p := range []float64{1e-4, 0.01, 0.1, 0.5, 0.9, 0.99} {
		b.Run(fmt.Sprintf("SampleBlock/p=%g", p), func(b *testing.B) {
			var s Sampler = NewBernoulli(p, 1)
			kept := make([]bool, block)
			for b.Loop() {
				s.SampleBlock(kept)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block), "ns/pkt")
			sink = len(kept)
		})
	}
}

// sink keeps the benchmarks' results alive.
var sink int

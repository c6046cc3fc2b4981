package sampler

import (
	"fmt"
	"math"
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

// TestBernoulliMatchesRNGStream pins the sampler's decisions to the
// stream randx.New(seed).Derive(run).Bernoulli(p) draws: the first 10^6
// at every rate, including the two that draw nothing, then after a Reset
// to another run, and across a rate changed mid-stream — as the adaptive
// loop retunes P between bins — where both sides keep their one stream (a
// NaN rate among them, which draws and keeps nothing).
// Each check runs once per packet through Sample and once through
// SampleBlock, in blocks of 1, 2, 7 and 256 and in random splits.
func TestBernoulliMatchesRNGStream(t *testing.T) {
	const seed, n = 977, 1_000_000
	for _, split := range blockSplits() {
		check := func(label string, s *Bernoulli, ref *randx.RNG, p float64, n int) {
			t.Helper()
			s.P = p
			got := split.decide(s, n)
			for i := range n {
				if want := ref.Bernoulli(p); got[i] != want {
					t.Fatalf("%s, %s: decision %d at p=%g is %v, the RNG stream's %v", split.name, label, i, p, got[i], want)
				}
			}
		}
		for _, p := range []float64{0, 1e-4, 0.01, 0.5, 1} {
			s := NewBernoulli(p, seed)
			check("run 0", s, randx.New(seed).Derive(0), p, n)
			s.Reset(3)
			check("run 3", s, randx.New(seed).Derive(3), p, n)
		}
		s, ref := NewBernoulli(0.01, seed), randx.New(seed).Derive(0)
		for _, p := range []float64{0.01, 0.5, 0, 1e-4, math.NaN(), 1, 0.2} {
			check("rate changes", s, ref, p, n/10+3) // no block length divides it: the last block is partial
		}
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

// BenchmarkSampler times a Bernoulli decision at p = 0.01, the rate
// daemon-scrape samples at, in ns/pkt: one Sample call per packet, and
// one SampleBlock call per 256 packets, the block the stream engine draws.
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
	b.Run("SampleBlock", func(b *testing.B) {
		var s Sampler = NewBernoulli(0.01, 1)
		kept := make([]bool, block)
		for b.Loop() {
			s.SampleBlock(kept)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block), "ns/pkt")
		sink = len(kept)
	})
}

// sink keeps the benchmarks' results alive.
var sink int

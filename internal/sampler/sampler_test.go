package sampler

import (
	"math"
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
// loop retunes P between bins — where both sides keep their one stream.
func TestBernoulliMatchesRNGStream(t *testing.T) {
	const seed, n = 977, 1_000_000
	check := func(label string, s *Bernoulli, ref *randx.RNG, p float64, n int) {
		t.Helper()
		s.P = p
		for i := range n {
			if got, want := s.Sample(packet.Packet{}), ref.Bernoulli(p); got != want {
				t.Fatalf("%s: decision %d at p=%g is %v, the RNG stream's %v", label, i, p, got, want)
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
	for _, p := range []float64{0.01, 0.5, 0, 1e-4, 1, 0.2} {
		check("rate changes", s, ref, p, n/10)
	}
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

func TestBernoulliRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p > 1")
		}
	}()
	NewBernoulli(1.5, 1)
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

// Package sampler implements the packet selection policies the paper
// studies: independent per-packet (Bernoulli) sampling and deterministic
// periodic 1-in-N sampling. Samplers are deterministic given (seed, run)
// so that experiments are reproducible and runs are independent. A
// sampler decides a block of packets in one call (SampleBlock), as the
// stream engine does, or one packet at a time (Sample); the two forms
// draw one decision stream, so any split of the same packets into blocks
// keeps the same ones.
package sampler

import (
	"fmt"
	"math"

	"flowrank/internal/packet"
	"flowrank/internal/randx"
)

// Sampler decides whether each packet, in trace order, is collected by the
// monitor. Implementations are not safe for concurrent use; create one per
// goroutine with independent run numbers.
type Sampler interface {
	// Sample reports whether the packet is kept: SampleBlock of one packet.
	Sample(p packet.Packet) bool
	// SampleBlock decides the next len(kept) packets in trace order at the
	// current rate, kept[i] for the i-th. It takes no packets: neither
	// policy reads one, and a caller's packet slice passed through the
	// interface would escape to the heap.
	SampleBlock(kept []bool)
	// Reset prepares the sampler for an independent run: the stream of
	// decisions after Reset(r) depends only on (seed, r) and any per-flow
	// state is cleared.
	Reset(run uint64)
	// Rate returns the long-run fraction of packets kept.
	Rate() float64
	// String describes the sampler for reports.
	String() string
}

// Bernoulli samples each packet independently with probability P — the
// paper's "random sampling", and the variant all its models assume. Its
// decision stream is randx.New(seed).Derive(run).Bernoulli(P)'s, drawn
// from a uniform stream held by value, which SampleBlock keeps in
// registers for a whole block.
type Bernoulli struct {
	P    float64
	seed uint64
	rng  randx.PCG
}

// NewBernoulli returns a Bernoulli sampler with rate p. It panics if p is
// outside [0, 1], NaN included.
func NewBernoulli(p float64, seed uint64) *Bernoulli {
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("sampler: rate %g outside [0,1]", p))
	}
	s := &Bernoulli{P: p, seed: seed}
	s.Reset(0)
	return s
}

// Sample keeps the packet with probability P: SampleBlock of one packet.
func (s *Bernoulli) Sample(packet.Packet) bool {
	var kept [1]bool
	s.SampleBlock(kept[:])
	return kept[0]
}

// SampleBlock keeps each packet with probability P, read once per call.
// As RNG.Bernoulli does, a rate of 0 or 1 decides without drawing, and
// any other keeps a packet when its draw's Float64 falls below P. Float64
// is the draw's low 53 bits over 2^53, so the test is made on those bits
// against P·2^53 rounded up, an integer compare with the same outcome (a
// NaN rate draws and keeps nothing, as Float64() < NaN). The stream is
// copied into a local for the loop, so its state stays in registers.
//
//flowrank:hotpath
func (s *Bernoulli) SampleBlock(kept []bool) {
	switch p := s.P; {
	case p <= 0:
		clear(kept)
	case p >= 1:
		for i := range kept {
			kept[i] = true
		}
	default:
		var below uint64
		if x := math.Ceil(p * (1 << 53)); x > 0 {
			below = uint64(x)
		}
		rng := s.rng
		for i := range kept {
			kept[i] = rng.Uint64()&(1<<53-1) < below
		}
		s.rng = rng
	}
}

// Reset reseeds the decision stream for the given run.
func (s *Bernoulli) Reset(run uint64) { s.rng = randx.New(s.seed).DerivePCG(run) }

// Rate returns P.
func (s *Bernoulli) Rate() float64 { return s.P }

func (s *Bernoulli) String() string { return fmt.Sprintf("bernoulli(p=%g)", s.P) }

// Periodic keeps one packet out of every Every packets — the "collect one
// packet every period" policy routers actually implement. The phase is
// randomized per run; [10] (cited in §2) found periodic and random
// sampling indistinguishable on high-speed links. No test pins that
// equivalence for this monitor yet: that is ROADMAP 3(b).
type Periodic struct {
	Every   int
	seed    uint64
	counter int
}

// NewPeriodic returns a 1-in-every sampler. It panics if every < 1.
func NewPeriodic(every int, seed uint64) *Periodic {
	if every < 1 {
		panic(fmt.Sprintf("sampler: period %d < 1", every))
	}
	s := &Periodic{Every: every, seed: seed}
	s.Reset(0)
	return s
}

// Sample keeps every Every-th packet: SampleBlock of one packet.
func (s *Periodic) Sample(packet.Packet) bool {
	var kept [1]bool
	s.SampleBlock(kept[:])
	return kept[0]
}

// SampleBlock keeps every Every-th packet, counting on across calls.
//
//flowrank:hotpath
func (s *Periodic) SampleBlock(kept []bool) {
	for i := range kept {
		s.counter++
		kept[i] = s.counter >= s.Every
		if kept[i] {
			s.counter = 0
		}
	}
}

// Reset randomizes the phase for the given run.
func (s *Periodic) Reset(run uint64) {
	s.counter = randx.New(s.seed).Derive(run).IntN(s.Every)
}

// Rate returns 1/Every.
func (s *Periodic) Rate() float64 { return 1 / float64(s.Every) }

func (s *Periodic) String() string { return fmt.Sprintf("periodic(1-in-%d)", s.Every) }

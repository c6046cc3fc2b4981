// Package sampler implements the packet selection policies the paper
// studies: independent per-packet (Bernoulli) sampling and deterministic
// periodic 1-in-N sampling. Samplers are deterministic given (seed, run)
// so that experiments are reproducible and runs are independent.
package sampler

import (
	"fmt"

	"flowrank/internal/packet"
	"flowrank/internal/randx"
)

// Sampler decides, packet by packet, whether a packet is collected by the
// monitor. Implementations are not safe for concurrent use; create one per
// goroutine with independent run numbers.
type Sampler interface {
	// Sample reports whether the packet is kept.
	Sample(p packet.Packet) bool
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
// from a uniform stream held by value: a packet's decision is one direct
// call, with no pointer to follow and no interface to go through.
type Bernoulli struct {
	P    float64
	seed uint64
	rng  randx.PCG
}

// NewBernoulli returns a Bernoulli sampler with rate p. It panics if p is
// outside [0, 1].
func NewBernoulli(p float64, seed uint64) *Bernoulli {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("sampler: rate %g outside [0,1]", p))
	}
	s := &Bernoulli{P: p, seed: seed}
	s.Reset(0)
	return s
}

// Sample keeps the packet with probability P. As RNG.Bernoulli does, a
// rate of 0 or 1 decides without drawing.
func (s *Bernoulli) Sample(packet.Packet) bool {
	if s.P <= 0 {
		return false
	}
	if s.P >= 1 {
		return true
	}
	return s.rng.Float64() < s.P
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

// Sample keeps every Every-th packet.
func (s *Periodic) Sample(packet.Packet) bool {
	s.counter++
	if s.counter >= s.Every {
		s.counter = 0
		return true
	}
	return false
}

// Reset randomizes the phase for the given run.
func (s *Periodic) Reset(run uint64) {
	s.counter = randx.New(s.seed).Derive(run).IntN(s.Every)
}

// Rate returns 1/Every.
func (s *Periodic) Rate() float64 { return 1 / float64(s.Every) }

func (s *Periodic) String() string { return fmt.Sprintf("periodic(1-in-%d)", s.Every) }

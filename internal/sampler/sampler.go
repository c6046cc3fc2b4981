// Package sampler implements the packet selection policies the paper
// studies: independent per-packet (Bernoulli) sampling and deterministic
// periodic 1-in-N sampling. Samplers are deterministic given (seed, run)
// so that experiments are reproducible and runs are independent. A
// sampler decides a block of packets in one call (SampleBlock), as the
// stream engine does, or one packet at a time (Sample); the two forms
// draw one decision stream, so any split of the same packets into blocks
// keeps the same ones. Bernoulli draws that stream as geometric gaps
// between kept packets at low rates, so a dropped packet costs no random
// draw there.
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
// paper's "random sampling", and the variant all its models assume. Such
// a stream is fully described by the i.i.d. gaps between kept packets,
// each geometric: below gapBelow the sampler draws the number of packets
// to drop before the next kept one, one uniform draw per kept packet, and
// carries a pending gap across calls, so any split of the same packets
// into blocks keeps the same ones. At gapBelow and above, where most
// packets are kept, it compares one draw per packet with P instead. The
// draws come from randx.New(seed).Derive(run)'s uniform stream, held by
// value, which SampleBlock keeps in registers for a whole block.
type Bernoulli struct {
	P    float64
	seed uint64
	rng  randx.PCG
	// gap is the number of packets to drop before the next kept one,
	// drawn at rate gapP with logQ = log(1 - gapP). gapP is 0 when no gap
	// is pending: after Reset, and after a call that did not draw gaps.
	gap        uint64
	gapP, logQ float64
}

// gapBelow is the rate below which Bernoulli draws geometric gaps instead
// of one compare per packet. A gap costs a draw and a logarithm, ~27 ns,
// per kept packet; a compare costs a draw, 4–5.5 ns, per packet. On a
// 2-vCPU x86-64 container BenchmarkSampler's SampleBlock read, in ns/pkt,
// gaps against compares (each side built with the other path disabled):
// 0.06/5.3 at p = 1e-4, 0.46/5.5 at 0.01, 2.8/5.3 at 0.1, 13/5.5 at 0.5,
// 24/5.5 at 0.9 and 26/5.5 at 0.99; the two meet between 0.15 (3.9/4.3)
// and 0.2 (5.0/4.1), with compares spreading over 3–5.5 from run to run.
const gapBelow = 0.125

// maxGap caps a drawn gap, which is +Inf for a rate so small that its
// logarithm underflows: 2^62 packets are never reached, and the cap keeps
// the index arithmetic in SampleBlock from overflowing.
const maxGap = 1 << 62

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

// SampleBlock keeps each packet with probability P, read once per call;
// an empty block decides and draws nothing. A rate of 0 or 1 decides
// without drawing, and a NaN rate keeps nothing. Below gapBelow, the
// pending gap is used up first, then each kept packet draws the gap to
// the next: floor(log(U)/log(1-P)) for U = Float64() + 2^-53, uniform in
// (0, 1], the inverse of the geometric law P{gap >= k} = (1-P)^k. A call
// at a rate other than the one the pending gap was drawn at discards it
// and draws a new one, which is exact because the law is memoryless: the
// packets after any point are independent of those before it. At
// gapBelow and above, a packet is kept when its draw's low 53 bits fall
// below P·2^53 rounded up, the test Float64() < P makes. The stream is
// copied into a local for the loop, so its state stays in registers.
//
//flowrank:hotpath
func (s *Bernoulli) SampleBlock(kept []bool) {
	if len(kept) == 0 {
		return
	}
	switch p := s.P; {
	case p > 0 && p < gapBelow:
		rng := s.rng
		if p != s.gapP {
			s.gapP, s.logQ = p, math.Log1p(-p)
			s.gap = geometric(&rng, s.logQ)
		}
		clear(kept)
		n := uint64(len(kept))
		i := s.gap
		for i < n {
			kept[i] = true
			i += 1 + geometric(&rng, s.logQ)
		}
		s.gap = i - n
		s.rng = rng
		return
	case !(p > 0):
		clear(kept)
	case p >= 1:
		for i := range kept {
			kept[i] = true
		}
	default:
		below := uint64(math.Ceil(p * (1 << 53)))
		rng := s.rng
		for i := range kept {
			kept[i] = rng.Uint64()&(1<<53-1) < below
		}
		s.rng = rng
	}
	s.gapP = 0
}

// geometric draws the number of failures before the first success of
// Bernoulli trials whose failure probability has logarithm logQ, capped
// at maxGap.
//
//flowrank:hotpath
func geometric(rng *randx.PCG, logQ float64) uint64 {
	u := float64(rng.Uint64()&(1<<53-1)+1) / (1 << 53) // Float64() + 2^-53, in (0, 1]
	if g := math.Log(u) / logQ; g < maxGap {
		return uint64(g)
	}
	return maxGap
}

// Reset reseeds the decision stream for the given run and discards the
// pending gap.
func (s *Bernoulli) Reset(run uint64) {
	s.rng = randx.New(s.seed).DerivePCG(run)
	s.gapP = 0
}

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

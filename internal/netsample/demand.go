package netsample

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"flowrank/internal/dist"
	"flowrank/internal/invert"
	"flowrank/internal/randx"
)

// PathStat aggregates the flows sharing one routed path. Flow and packet
// totals are the kind of quantity real networks know exactly (interface
// and flow-cache counters), so they enter the Demand uninverted; only the
// per-flow size distributions need estimating.
type PathStat struct {
	// Switches is the path, ingress first.
	Switches []string
	// Flows is the number of flows routed on the path in the bin.
	Flows int
	// Packets is the total packets those flows carry.
	Packets float64
}

// Key returns the canonical path identifier.
func (p PathStat) Key() string { return PathKey(p.Switches) }

// LinkState is the allocator's per-link view: how many flows the link
// carries and what their size distribution looks like — usually an
// inverted estimate from probe-sampled counts (Observe), exact when built
// by TrueDemand.
type LinkState struct {
	// Link is the canonical link ID ("u>v").
	Link string
	// Flows estimates the link's flow population, including flows the
	// probe missed.
	Flows float64
	// Packets is the link's total packet load per bin.
	Packets float64
	// Dist is the (estimated) flow-size distribution on the link.
	Dist dist.SizeDist
	// Method names how Dist was obtained ("true", or an estimator name).
	Method string
}

// Demand is an allocator's complete input: the budgeted topology, the
// routed traffic aggregates, and the per-link size estimates. Allocators
// canonicalize the path and link enumeration order internally, so two
// Demands that differ only by slice order produce identical allocations.
type Demand struct {
	Topo  *Topology
	Paths []PathStat
	Links []LinkState
	// TopT is the per-link top-list length the operator wants ranked.
	TopT int
	// Workers bounds the predicted-quality model evaluations'
	// parallelism (core.Model.Workers).
	Workers int

	// view and score memoize the canonical read model and the per-link
	// model quality curves: every allocator run against the same Demand
	// shares them, so comparing three allocators pays the model cost
	// once. viewFP fingerprints the Paths/Links the memo was built from,
	// so mutating the demand invalidates it instead of silently serving
	// stale curves.
	view   *demandView
	score  *scorer
	viewFP uint64
}

// sigProbes is the fixed size ladder a distribution's signature samples
// the CCDF on — body through deep tail, matching the range the scorer's
// quality curves are sensitive to.
var sigProbes = []float64{1, 2, 5, 10, 30, 100, 300, 1e3, 1e4, 1e5}

// distSig summarizes a size law for change detection: its mean followed
// by the CCDF at the fixed probe ladder.
func distSig(d dist.SizeDist) []float64 {
	sig := make([]float64, 0, len(sigProbes)+1)
	sig = append(sig, d.Mean())
	for _, x := range sigProbes {
		sig = append(sig, d.CCDF(x))
	}
	return sig
}

// fingerprint hashes everything the memoized view and scorer were built
// from: the topology identity, top-t, every path aggregate and every
// link's population signature. ensureView compares it on each use, so a
// caller mutating Demand.Paths or Demand.Links gets a rebuilt view
// instead of silently stale curves.
func (d *Demand) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	mix := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:]) // a hash's Write never fails
	}
	mixStr := func(s string) {
		_, _ = io.WriteString(h, s)
		mix(uint64(len(s)))
	}
	mix(uint64(d.TopT))
	mix(uint64(len(d.Paths)))
	for _, p := range d.Paths {
		mixStr(p.Key())
		mix(uint64(p.Flows))
		mix(math.Float64bits(p.Packets))
	}
	mix(uint64(len(d.Links)))
	for _, ls := range d.Links {
		mixStr(ls.Link)
		mixStr(ls.Method)
		mix(math.Float64bits(ls.Flows))
		mix(math.Float64bits(ls.Packets))
		if ls.Dist != nil {
			for _, v := range distSig(ls.Dist) {
				mix(math.Float64bits(v))
			}
		}
	}
	return h.Sum64()
}

// pathStats groups a routed workload by path, in first-appearance order.
func pathStats(flows []RoutedFlow) []PathStat {
	idx := make(map[string]int)
	var out []PathStat
	for _, f := range flows {
		key := PathKey(f.Path)
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			out = append(out, PathStat{Switches: append([]string(nil), f.Path...)})
		}
		out[i].Flows++
		out[i].Packets += float64(f.Record.Packets)
	}
	return out
}

// linkFlows groups the workload's flow indices by traversed link.
func linkFlows(flows []RoutedFlow) map[string][]int {
	m := make(map[string][]int)
	for i, f := range flows {
		for h := 0; h+1 < len(f.Path); h++ {
			id := Link{From: f.Path[h], To: f.Path[h+1]}.ID()
			m[id] = append(m[id], i)
		}
	}
	return m
}

// validateWorkload checks every flow is routed over existing links.
func validateWorkload(topo *Topology, flows []RoutedFlow) error {
	for i, f := range flows {
		if len(f.Path) < 2 {
			return fmt.Errorf("netsample: flow %d path %v has no monitored link", i, f.Path)
		}
		for h := 0; h+1 < len(f.Path); h++ {
			if !topo.HasLink(f.Path[h], f.Path[h+1]) {
				return fmt.Errorf("netsample: flow %d path %v uses missing link %s>%s",
					i, f.Path, f.Path[h], f.Path[h+1])
			}
		}
	}
	return nil
}

// Observe builds a Demand the way a deployed controller would: each
// link's flows are probe-sampled at probeRate (exact binomial thinning of
// the per-flow packet counts, seeded per link) and the sampled counts are
// run through the estimator to recover the link's flow population and
// size distribution — internal/invert applied once per link. Path and
// link traffic totals are taken exactly, as interface counters would
// provide them. The per-link probe streams are keyed by link ID, so the
// resulting Demand does not depend on any enumeration order.
func Observe(topo *Topology, flows []RoutedFlow, probeRate float64, est invert.Estimator, topT int, seed uint64) (*Demand, error) {
	if !(probeRate > 0 && probeRate <= 1) {
		return nil, fmt.Errorf("netsample: probe rate %g outside (0, 1]", probeRate)
	}
	if est == nil {
		return nil, fmt.Errorf("netsample: nil estimator")
	}
	if topT < 1 {
		return nil, fmt.Errorf("netsample: top-t %d must be >= 1", topT)
	}
	if err := validateWorkload(topo, flows); err != nil {
		return nil, err
	}
	d := &Demand{Topo: topo, Paths: pathStats(flows), TopT: topT}
	byLink := linkFlows(flows)
	ids := make([]string, 0, len(byLink))
	for id := range byLink {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	base := randx.New(seed)
	for _, id := range ids {
		members := canonicalOrder(flows, byLink[id])
		// One probe stream per link, keyed by the link's name, thinning
		// the link's flows in a canonical order — so the observation is a
		// function of the workload's flow multiset and the link name
		// alone, never of any enumeration order.
		g := base.Derive(stringSeed(id))
		var counts []float64
		var truePkts float64
		for _, fi := range members {
			pkts := flows[fi].Record.Packets
			truePkts += float64(pkts)
			if k := g.Binomial(pkts, probeRate); k > 0 {
				counts = append(counts, float64(k))
			}
		}
		if len(counts) == 0 {
			// The probe saw nothing on this link (a few tiny flows can
			// easily leave zero samples at a low probe rate). There is no
			// information to allocate on, so the link is left out of the
			// Demand rather than failing the whole observation; the
			// allocators simply do not score it.
			continue
		}
		ls := LinkState{Link: id, Packets: truePkts}
		e, err := invertWithFallback(est, counts, probeRate)
		if err != nil {
			return nil, fmt.Errorf("netsample: inverting link %s: %w", id, err)
		}
		ls.Flows = e.FlowCount
		ls.Dist = e.Dist
		ls.Method = e.Method
		d.Links = append(d.Links, ls)
	}
	return d, nil
}

// invertWithFallback runs the estimator and falls back to the naive 1/p
// rescaling when the estimator cannot handle the link (too few sampled
// flows for a tail fit, say) — a thin link with at least one sampled
// flow still needs some size estimate for the allocator to weigh it.
func invertWithFallback(est invert.Estimator, counts []float64, p float64) (invert.Estimate, error) {
	e, err := est.Invert(counts, p)
	if err == nil {
		return e, nil
	}
	return invert.Naive{}.Invert(counts, p)
}

// TrueDemand builds the oracle Demand: every link's exact empirical size
// distribution and flow count. It is the upper bound Observe approximates
// and the reference the tests compare against.
func TrueDemand(topo *Topology, flows []RoutedFlow, topT int) (*Demand, error) {
	if topT < 1 {
		return nil, fmt.Errorf("netsample: top-t %d must be >= 1", topT)
	}
	if err := validateWorkload(topo, flows); err != nil {
		return nil, err
	}
	d := &Demand{Topo: topo, Paths: pathStats(flows), TopT: topT}
	byLink := linkFlows(flows)
	ids := make([]string, 0, len(byLink))
	for id := range byLink {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		members := byLink[id]
		sizes := make([]float64, 0, len(members))
		var truePkts float64
		for _, fi := range members {
			pkts := float64(flows[fi].Record.Packets)
			sizes = append(sizes, pkts)
			truePkts += pkts
		}
		d.Links = append(d.Links, LinkState{
			Link:    id,
			Flows:   float64(len(members)),
			Packets: truePkts,
			Dist:    dist.NewDiscrete(dist.Tally(sizes)),
			Method:  "true",
		})
	}
	return d, nil
}

// canonicalOrder sorts a copy of the flow indices by (start time, key
// hash, packets) — a total order on any realistic workload, making the
// probe draws independent of how the caller enumerated the flows.
func canonicalOrder(flows []RoutedFlow, members []int) []int {
	out := append([]int(nil), members...)
	sort.Slice(out, func(a, b int) bool {
		fa, fb := flows[out[a]].Record, flows[out[b]].Record
		if fa.Start != fb.Start {
			return fa.Start < fb.Start
		}
		ha, hb := fa.Key.FastHash(), fb.Key.FastHash()
		if ha != hb {
			return ha < hb
		}
		return fa.Packets < fb.Packets
	})
	return out
}

// stringSeed folds a string into a stable 64-bit stream id (FNV-1a).
func stringSeed(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s) // a hash's Write never fails
	return h.Sum64()
}

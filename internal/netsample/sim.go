package netsample

import (
	"fmt"
	"math"
	"sort"

	"flowrank/internal/flowtable"
	"flowrank/internal/metrics"
	"flowrank/internal/randx"
)

// Result is the measured network-wide quality of an allocation over a
// routed workload.
type Result struct {
	// Pairs sums the §5/§7 swapped-pair counts of every link over every
	// run; RankFrac and DetectFrac are the corresponding normalized
	// metrics (lower is better).
	Pairs      metrics.PairCounts
	RankFrac   float64
	DetectFrac float64
	// TopK is the mean per-link top-t overlap between the true and
	// recovered rankings (higher is better).
	TopK float64
	// SampledPerSwitch is the mean number of sampled packets per switch
	// per run — the measured budget use.
	SampledPerSwitch map[string]float64
	// BudgetRatio is each switch's realized budget compliance: mean
	// sampled packets per run divided by the switch's budget (1 = exactly
	// on budget). MaxBudgetRatio is the worst switch's ratio — the
	// realized-vs-budget spread the dynamic control plane tracks; budgets
	// bind expectations, so a ratio above 1 measures hash-partition skew
	// plus sampling noise, and size-aware rates exist to shrink it.
	BudgetRatio    map[string]float64
	MaxBudgetRatio float64
	// Runs is the number of independent sampling runs averaged.
	Runs int
}

// estScale quantizes the collector's 1/p-rescaled size estimates onto an
// integer grid so the paper's swapped-pair conventions (missed flows are
// zeros, exact ties count as misranked) carry over unchanged through
// internal/metrics.
const estScale = 1 << 20

// Simulate replays the routed workload under an allocation: every flow is
// sampled once per traversing monitor (exact binomial thinning of its
// packet count at the monitor's rate), the collector reads each flow at
// its hash owner, and each link's recovered ranking is scored against the
// truth with the paper's metrics. Uncoordinated allocations thin at every
// monitor — spending every switch's budget — while coordinated ones thin
// only at the owner; either way a flow contributes exactly one
// observation, so no flow is ever double-counted.
//
// The workload's flow order, the allocation, and the seed fully determine
// the result.
func Simulate(topo *Topology, flows []RoutedFlow, a *Allocation, topT, runs int, seed uint64) (*Result, error) {
	return simulate(topo, flows, a, topT, runs, seed, false)
}

// SimulateBudgeted is Simulate with every switch's budget enforced as a
// hard per-run sampling quota: once a switch has kept its budget's worth
// of packets in a run, further samples at that switch are dropped —
// flows are charged in slice order (the workload generators emit flows
// in start-time order), so a switch whose allocation oversubscribes its
// budget exhausts the quota partway through the bin and truncates or
// misses everything after, exactly the failure a stale static allocation
// produces on a switch whose load grew. Under enforcement every
// BudgetRatio is at most ~1 (a quota can overshoot by at most the last
// flow's samples), so comparing allocations with SimulateBudgeted is
// budget-fair: nobody gets to buy ranking quality with packets its
// budget does not cover.
func SimulateBudgeted(topo *Topology, flows []RoutedFlow, a *Allocation, topT, runs int, seed uint64) (*Result, error) {
	return simulate(topo, flows, a, topT, runs, seed, true)
}

func simulate(topo *Topology, flows []RoutedFlow, a *Allocation, topT, runs int, seed uint64, enforce bool) (*Result, error) {
	if a == nil {
		return nil, fmt.Errorf("netsample: nil allocation")
	}
	if topT < 1 || runs < 1 {
		return nil, fmt.Errorf("netsample: top-t %d and runs %d must be >= 1", topT, runs)
	}
	if err := validateWorkload(topo, flows); err != nil {
		return nil, err
	}

	// Per-flow owner monitors are a pure function of the allocation and
	// the flow keys: walk the path's monitors in path order through the
	// flow's hash point.
	owners := make([]string, len(flows))
	for i, f := range flows {
		owners[i] = ownerOf(f, a.Shares[PathKey(f.Path)])
	}

	// True per-link rankings, computed once: entry lists sorted in the
	// canonical order plus the flow index of every position.
	type linkTruth struct {
		id      string
		entries []flowtable.Entry
		flowIdx []int
	}
	byLink := linkFlows(flows)
	ids := make([]string, 0, len(byLink))
	for id := range byLink {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	truths := make([]linkTruth, 0, len(ids))
	for _, id := range ids {
		members := byLink[id]
		lt := linkTruth{id: id, flowIdx: members}
		for _, fi := range members {
			lt.entries = append(lt.entries, flowtable.Entry{
				Key:     flows[fi].Record.Key,
				Packets: int64(flows[fi].Record.Packets),
			})
		}
		order := make([]int, len(members))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool {
			return flowtable.Less(lt.entries[order[x]], lt.entries[order[y]])
		})
		sorted := make([]flowtable.Entry, len(order))
		sortedIdx := make([]int, len(order))
		for i, oi := range order {
			sorted[i] = lt.entries[oi]
			sortedIdx[i] = members[oi]
		}
		lt.entries, lt.flowIdx = sorted, sortedIdx
		truths = append(truths, lt)
	}

	res := &Result{Runs: runs, SampledPerSwitch: map[string]float64{}}
	estimates := make([]int64, len(flows))
	var topkSum float64
	var topkCells int
	for run := 0; run < runs; run++ {
		g := randx.New(seed).Derive(uint64(run) + 1)
		var quota map[string]float64
		if enforce {
			quota = make(map[string]float64, len(topo.Switches()))
			for _, sw := range topo.Switches() {
				quota[sw.ID] = sw.Budget
			}
		}
		for i, f := range flows {
			pkts := f.Record.Packets
			for _, sw := range Monitors(f.Path) {
				if a.Coordinated && sw != owners[i] {
					continue // hash ranges are disjoint: nobody else samples this flow
				}
				rate := a.Rates[sw]
				k := g.Binomial(pkts, rate)
				if enforce {
					if rem := quota[sw]; float64(k) > rem {
						k = int(rem)
					}
					quota[sw] -= float64(k)
				}
				res.SampledPerSwitch[sw] += float64(k)
				if sw == owners[i] {
					if rate > 0 {
						estimates[i] = int64(math.Round(float64(k) / rate * estScale))
					} else {
						estimates[i] = 0
					}
				}
			}
		}
		for _, lt := range truths {
			ests := make([]int64, len(lt.flowIdx))
			sampledEntries := make([]flowtable.Entry, len(lt.flowIdx))
			for i, fi := range lt.flowIdx {
				ests[i] = estimates[fi]
				sampledEntries[i] = flowtable.Entry{Key: flows[fi].Record.Key, Packets: estimates[fi]}
			}
			pc := metrics.CountSwappedCounts(lt.entries, ests, topT)
			res.Pairs.Ranking += pc.Ranking
			res.Pairs.Detection += pc.Detection
			res.Pairs.Pairs += pc.Pairs
			res.Pairs.BoundaryPairs += pc.BoundaryPairs
			topkSum += metrics.TopKOverlap(lt.entries, flowtable.SortEntries(sampledEntries), topT)
			topkCells++
		}
	}
	res.RankFrac = res.Pairs.RankingFrac()
	res.DetectFrac = res.Pairs.DetectionFrac()
	if topkCells > 0 {
		res.TopK = topkSum / float64(topkCells)
	}
	for sw := range res.SampledPerSwitch {
		res.SampledPerSwitch[sw] /= float64(runs)
	}
	res.BudgetRatio = make(map[string]float64, len(res.SampledPerSwitch))
	for sw, used := range res.SampledPerSwitch {
		b, ok := topo.Switch(sw)
		if !ok || !(b.Budget > 0) {
			continue
		}
		ratio := used / b.Budget
		res.BudgetRatio[sw] = ratio
		if ratio > res.MaxBudgetRatio {
			res.MaxBudgetRatio = ratio
		}
	}
	return res, nil
}

// ownerOf resolves a flow's hash owner among its path's monitors: the
// monitor whose cumulative share interval contains the flow's hash point,
// walking monitors in path order. Shares sum to 1 only up to float
// accumulation error, so a hash point can land just past the last
// interval; such a flow belongs to the last positive-share monitor —
// the one whose interval the lost mass was rounded out of — never to a
// zero-share monitor, whose rate was budgeted for no owned load at all.
// With no or zero shares the first monitor owns the flow.
func ownerOf(f RoutedFlow, shares map[string]float64) string {
	monitors := Monitors(f.Path)
	u := hashUnit(f.Record.Key)
	var cum float64
	last := ""
	for _, sw := range monitors {
		if shares[sw] > 0 {
			last = sw
		}
		cum += shares[sw]
		if u < cum {
			return sw
		}
	}
	if last != "" {
		return last
	}
	return monitors[0]
}

package netsample

import "maps"

// Coordinated is the model-driven allocator: it searches over hash-range
// assignments (which monitor owns which slice of each path's flows),
// scoring every candidate with the analytical model's predicted
// network-wide ranking fraction over the links' inverted size
// distributions, and budgets each switch against its owned load only —
// the cSamp discipline.
//
// The search is deterministic hill climbing:
//
//  1. Start from the Uniform baseline's ownership (each path read at its
//     best uncoordinated monitor) with coordinated budget accounting.
//     Owned load never exceeds offered load, so every rate starts at or
//     above the Uniform rate and the starting score already dominates the
//     baseline.
//  2. For up to coordinatedPasses passes, visit paths heaviest-first and
//     try re-owning each path: wholly to each of its monitors, or split
//     evenly across them. Keep a move only if the predicted score
//     strictly improves.
//
// Every candidate is scored against rates recomputed from its shares, so
// the search sees the real budget coupling: taking a path from a loaded
// switch raises that switch's rate for everything it still owns.
type Coordinated struct{}

// coordinatedPasses bounds the hill-climbing sweeps over the path list.
const coordinatedPasses = 2

// Name implements Allocator.
func (Coordinated) Name() string { return "coordinated" }

// Allocate implements Allocator.
func (Coordinated) Allocate(d *Demand) (*Allocation, error) {
	v, s, err := viewAndScorer(d)
	if err != nil {
		return nil, err
	}

	// Step 1: the dominating start — Uniform's observation points with
	// coordinated accounting.
	uniformRates := v.budgetRates(v.offered)
	shares := v.concentratedShares(func(p PathStat) string { return bestMonitor(p, uniformRates) })
	rates := v.budgetRates(v.owned(shares))
	score := s.networkFrac(rates, shares)

	// Step 2: hill-climb path ownerships, heaviest paths first.
	order := v.heaviestFirst()
	for pass := 0; pass < coordinatedPasses; pass++ {
		improved := false
		for _, pi := range order {
			p := v.paths[pi]
			monitors := Monitors(p.Switches)
			best := maps.Clone(shares[p.Key()])
			bestScore := score
			for ci := 0; ci <= len(monitors); ci++ {
				cand := make(map[string]float64, len(monitors))
				if ci == len(monitors) {
					for _, sw := range monitors {
						cand[sw] = 1 / float64(len(monitors))
					}
				} else {
					for _, sw := range monitors {
						cand[sw] = 0
					}
					cand[monitors[ci]] = 1
				}
				shares[p.Key()] = cand
				candRates := v.budgetRates(v.owned(shares))
				if cs := s.networkFrac(candRates, shares); cs < bestScore {
					bestScore = cs
					best = cand
				}
			}
			shares[p.Key()] = best
			if bestScore < score {
				score = bestScore
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	rates = v.budgetRates(v.owned(shares))
	return &Allocation{
		Name:        "coordinated",
		Coordinated: true,
		Rates:       rates,
		Shares:      shares,
		Predicted:   s.networkFrac(rates, shares),
	}, nil
}

// Adaptive sampling (the paper's future work #3): watch one measurement
// bin of sampled traffic, estimate the flow population by inverting the
// sampling, and pick the cheapest rate that meets a ranking/detection
// accuracy target — then verify the recommendation by simulation.
package main

import (
	"fmt"
	"log"
	"math"

	"flowrank"
)

func main() {
	// Ground truth the controller never sees: a Sprint-like population.
	cfg := flowrank.SprintFiveTuple(60, 21)
	cfg.ArrivalRate /= 2
	records, err := flowrank.GenerateTrace(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hidden truth: %d flows in the bin\n\n", len(records))

	// Step 1: observe the bin at a cautious initial rate.
	const pObserve = 0.05
	table := flowrank.NewFlowTable(flowrank.FiveTuple{})
	smp := flowrank.NewBernoulli(pObserve, 5)
	if err := flowrank.StreamPackets(records, 8, func(pk flowrank.Packet) error {
		if smp.Sample(pk) {
			table.Add(pk)
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	var sizes []float64
	var packets int64
	for _, e := range table.Entries() {
		packets += e.Packets
		sizes = append(sizes, float64(e.Packets))
	}
	fmt.Printf("observed at p = %.0f%%: %d sampled flows, %d sampled packets\n\n",
		pObserve*100, len(sizes), packets)

	// Step 2: invert the sampling to estimate the population the bin came
	// from: how many flows, and their size law.
	est, err := flowrank.ParametricInverter{}.Invert(sizes, pObserve)
	if err != nil {
		log.Fatal(err)
	}

	// Step 3: ask the controller for rates meeting two targets.
	for _, goal := range []struct {
		name      string
		detection bool
	}{{"rank the top 10 in order", false}, {"identify the top 10 set", true}} {
		ctl := flowrank.Controller{Target: 1, TopT: 10, Detection: goal.detection}
		rate, model, err := ctl.RecommendEstimate(est)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("goal: %s\n", goal.name)
		fmt.Printf("  fitted population: N = %d, mean size %.1f pkts (true: %d, 9.6)\n",
			model.N, model.Dist.Mean(), len(records))
		fmt.Printf("  recommended rate: %.2f%%\n", rate*100)

		// Step 4: verify by simulation at the recommended rate.
		res, err := flowrank.Simulate(flowrank.SimConfig{
			Records: records, BinSeconds: 60, Horizon: 60, TopT: 10,
			Rates: []float64{math.Min(rate, 1)}, Runs: 20, Seed: 99,
		})
		if err != nil {
			log.Fatal(err)
		}
		bin := res.Series[0].Bins[0]
		metric := bin.Ranking.Mean()
		if goal.detection {
			metric = bin.Detection.Mean()
		}
		fmt.Printf("  simulated metric at that rate: %.2f (target <= 1)\n\n", metric)
	}
}

// Traffic engineering: how much sampling does a backbone operator need to
// identify the flows worth rerouting?
//
// The paper motivates flow ranking with traffic engineering ([19], [18]):
// load-sensitive routing only pays off for the few largest flows. This
// example uses the analytical model to answer the operator's question
// directly — the minimum sampling rate to (a) fully rank or (b) merely
// identify the top-t flows on a Sprint-like OC-12 link — and compares both
// against the 0.1–1% rates router vendors recommend.
package main

import (
	"fmt"
	"log"

	"flowrank"
)

func main() {
	// The paper's 5-tuple calibration: N = 0.7M flows per 5-minute
	// interval, Pareto flow sizes with mean 9.6 packets, beta = 1.5.
	sizeDist := flowrank.ParetoWithMean(9.6, 1.5)

	fmt.Println("minimum sampling rate for an acceptable top-t list (metric < 1)")
	fmt.Println("link: Sprint OC-12 calibration, N = 700K flows / 5 min, Pareto(beta=1.5)")
	fmt.Println()
	fmt.Printf("%6s  %18s  %18s  %8s\n", "t", "rank in order", "identify the set", "gain")
	for _, t := range []int{1, 2, 5, 10, 25} {
		m := flowrank.Model{N: 700_000, T: t, Dist: sizeDist}
		pRank, err := m.RequiredRate(1, false)
		if err != nil {
			log.Fatal(err)
		}
		pDetect, err := m.RequiredRate(1, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d  %17.2f%%  %17.2f%%  %7.1fx\n",
			t, pRank*100, pDetect*100, pRank/pDetect)
	}

	fmt.Println()
	fmt.Println("vendor guidance is 0.1%-1% sampling: at those rates an operator can at")
	fmt.Println("best *detect* the top few flows; ordering them requires 10-50% sampling,")
	fmt.Println("so TE decisions should be based on set membership, not on rank order.")

	// What does 1% sampling actually buy on this link?
	fmt.Println()
	fmt.Printf("%s\n", "expected swapped pairs at p = 1%:")
	for _, t := range []int{1, 5, 25} {
		m := flowrank.Model{N: 700_000, T: t, Dist: sizeDist}
		fmt.Printf("  top-%-3d ranking %8.2f   detection %8.2f\n",
			t, m.RankingMetric(0.01), m.DetectionMetric(0.01))
	}
}

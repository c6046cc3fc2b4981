package flowrank_test

import (
	"fmt"

	"flowrank"
)

// The paper's headline question: what sampling rate does ranking the top
// flows need? The model answers without simulating anything.
func ExampleModel_rankingMetric() {
	m := flowrank.Model{
		N:    700_000, // flows per 5-minute bin (Sprint 5-tuple)
		T:    10,
		Dist: flowrank.ParetoWithMean(9.6, 1.5),
	}
	for _, p := range []float64{0.01, 0.10, 0.50} {
		fmt.Printf("p=%3.0f%%  swapped pairs ≈ %.1f\n", p*100, m.RankingMetric(p))
	}
	// Output:
	// p=  1%  swapped pairs ≈ 11.1
	// p= 10%  swapped pairs ≈ 3.1
	// p= 50%  swapped pairs ≈ 1.0
}

// Detection (recovering the top-t set, order ignored) is roughly an order
// of magnitude cheaper than ranking — §7 of the paper.
func ExampleModel_requiredRate() {
	m := flowrank.Model{
		N:    700_000,
		T:    10,
		Dist: flowrank.ParetoWithMean(9.6, 1.5),
	}
	rank, _ := m.RequiredRate(1, false)
	detect, _ := m.RequiredRate(1, true)
	fmt.Printf("rank the top 10:   p ≈ %.0f%%\n", rank*100)
	fmt.Printf("detect the top 10: p ≈ %.0f%%\n", detect*100)
	// Output:
	// rank the top 10:   p ≈ 51%
	// detect the top 10: p ≈ 5%
}

// OptimalRate inverts the pairwise misranking probability (Figs. 1–2):
// flows of similar size need near-complete sampling, well-separated ones
// almost none.
func ExampleOptimalRate() {
	for _, pair := range [][2]int{{90, 100}, {50, 100}, {10, 100}} {
		p, err := flowrank.OptimalRate(pair[0], pair[1], 1e-3, flowrank.RateExact)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("sizes %3d vs %d: p ≥ %.1f%%\n", pair[0], pair[1], p*100)
	}
	// Output:
	// sizes  90 vs 100: p ≥ 95.5%
	// sizes  50 vs 100: p ≥ 37.2%
	// sizes  10 vs 100: p ≥ 10.5%
}

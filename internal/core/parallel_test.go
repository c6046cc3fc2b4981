package core

import (
	"testing"

	"flowrank/internal/dist"
)

// The engine contract under test here: parallelism under the model path
// must be invisible in the numbers. Workers=1 and Workers=N evaluations
// must agree bit for bit, because the workers only reorder identical
// float64 computations.

func TestModelWorkersIdentical(t *testing.T) {
	for _, kernel := range []Kernel{KernelGaussian, KernelHybrid} {
		m := Model{
			N: 200_000, T: 5,
			Dist:         dist.ParetoWithMean(9.6, 1.5),
			PoissonTails: true,
			Kernel:       kernel,
			Workers:      1,
		}
		for _, p := range []float64{0.02, 0.2} {
			wantR, wantD := m.RankingMetric(p), m.DetectionMetric(p)
			for _, workers := range []int{3, 16} {
				mp := m
				mp.Workers = workers
				if got := mp.RankingMetric(p); got != wantR {
					t.Errorf("kernel=%d p=%g workers=%d: ranking %g, serial %g",
						kernel, p, workers, got, wantR)
				}
				if got := mp.DetectionMetric(p); got != wantD {
					t.Errorf("kernel=%d p=%g workers=%d: detection %g, serial %g",
						kernel, p, workers, got, wantD)
				}
			}
		}
	}
}

func TestModelWorkersDegenerateOrder(t *testing.T) {
	// OuterOrder below the Gauss-Legendre minimum is clamped identically
	// on the serial and parallel paths.
	m := Model{N: 1000, T: 3, Dist: dist.ParetoWithMean(9.6, 1.5), OuterOrder: 1, Workers: 4}
	s := m
	s.Workers = 1
	if a, b := m.RankingMetric(0.1), s.RankingMetric(0.1); a != b {
		t.Fatalf("order-1 parallel %g vs serial %g", a, b)
	}
}

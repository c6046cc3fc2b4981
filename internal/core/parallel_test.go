package core

import (
	"math"
	"testing"

	"flowrank/internal/dist"
)

// The engine contract under test here: parallelism under the model path
// must be invisible in the numbers. Workers=1 and Workers=N evaluations
// must agree bit for bit, because the workers only reorder identical
// float64 computations.

func testPMF(t *testing.T) []float64 {
	t.Helper()
	return ZipfPMF(1.2, 100)
}

func TestMisrankTableWorkersIdentical(t *testing.T) {
	pmf := testPMF(t)
	base := DiscreteModel{PMF: pmf, N: 5000, T: 10, Workers: 1}
	want := base.misrankTable(0.07)
	for _, workers := range []int{2, 7, 1000} {
		dm := DiscreteModel{PMF: pmf, N: 5000, T: 10, Workers: workers}
		got := dm.misrankTable(0.07)
		for i := 1; i < len(want); i++ {
			for j := 1; j < len(want[i]); j++ {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: table[%d][%d] = %g, serial %g",
						workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestDiscreteMetricsWorkersIdentical(t *testing.T) {
	pmf := testPMF(t)
	for _, p := range []float64{0.02, 0.5} {
		serial := DiscreteModel{PMF: pmf, N: 5000, T: 10, Workers: 1}
		parallel := DiscreteModel{PMF: pmf, N: 5000, T: 10, Workers: 8}
		if got, want := parallel.RankingMetric(p), serial.RankingMetric(p); got != want {
			t.Errorf("p=%g: ranking with 8 workers %g, serial %g", p, got, want)
		}
		if got, want := parallel.DetectionMetric(p), serial.DetectionMetric(p); got != want {
			t.Errorf("p=%g: detection with 8 workers %g, serial %g", p, got, want)
		}
	}
}

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

func TestDiscreteWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	// Smoke: the default (Workers: 0) path must agree with serial too.
	pmf := GeometricPMF(0.3, 100)
	serial := DiscreteModel{PMF: pmf, N: 2000, T: 5, Workers: 1}
	auto := DiscreteModel{PMF: pmf, N: 2000, T: 5}
	if s, a := serial.RankingMetric(0.1), auto.RankingMetric(0.1); s != a {
		t.Errorf("auto workers %g, serial %g", a, s)
	}
	if math.IsNaN(serial.RankingMetric(0.1)) {
		t.Error("NaN metric")
	}
}

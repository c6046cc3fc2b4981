package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSumCancellations(t *testing.T) {
	// 1 + 1e100 - 1e100 loses the 1 with naive summation; Neumaier keeps it.
	var s KahanSum
	s.Add(1)
	s.Add(1e100)
	s.Add(-1e100)
	if got := s.Sum(); got != 1 {
		t.Errorf("sum = %g, want 1", got)
	}
}

func TestKahanSumManySmall(t *testing.T) {
	var s KahanSum
	n := 10_000_000
	for i := 0; i < n; i++ {
		s.Add(0.1)
	}
	want := float64(n) * 0.1
	if math.Abs(s.Sum()-want) > 1e-6 {
		t.Errorf("sum = %.10f, want %.10f", s.Sum(), want)
	}
}

func TestKahanReset(t *testing.T) {
	var s KahanSum
	s.Add(42)
	s.Reset()
	if s.Sum() != 0 {
		t.Errorf("after reset sum = %g, want 0", s.Sum())
	}
}

// sumSlice returns the compensated sum of xs.
func sumSlice(xs []float64) float64 {
	var s KahanSum
	for _, x := range xs {
		s.Add(x)
	}
	return s.Sum()
}

func TestSumSliceMatchesSequential(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			// Skip inputs whose running sum could overflow: the property
			// under test is determinism, not extended-range arithmetic.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		if len(xs) > 0 && math.Abs(sumSlice(xs)) > 1e306 {
			return true
		}
		var s KahanSum
		for _, x := range xs {
			s.Add(x)
		}
		return sumSlice(xs) == s.Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

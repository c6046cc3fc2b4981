package dist

import "fmt"

// Discretize projects a continuous size law onto the integer packet
// counts 1..max, returning the pmf in the layout NewDiscreteFromPMF wraps
// and core's test reference (DiscreteModel) consumes: pmf[s] is P{S rounds
// to s packets}, pmf[0] = 0, and the whole tail beyond max is folded into
// pmf[max] so the result sums to one.
//
// The rounding convention matches the simulators (tracegen rounds
// continuous draws to the nearest integer and clamps to >= 1 packet):
// size s collects the mass on (s-½, s+½], and everything at or below 1½
// becomes a 1-packet flow.
func Discretize(d SizeDist, max int) []float64 {
	if d == nil {
		panic("dist: Discretize of nil distribution")
	}
	if max < 1 {
		panic(fmt.Sprintf("dist: Discretize needs max >= 1, got %d", max))
	}
	pmf := make([]float64, max+1)
	if max == 1 {
		pmf[1] = 1
		return pmf
	}
	prev := d.CCDF(1.5)
	pmf[1] = 1 - prev
	for s := 2; s < max; s++ {
		next := d.CCDF(float64(s) + 0.5)
		mass := prev - next
		if mass < 0 { // numerical noise in a flat CCDF region
			mass = 0
		}
		pmf[s] = mass
		prev = next
	}
	pmf[max] = prev
	return pmf
}

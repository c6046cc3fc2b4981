package numeric

// KahanSum accumulates float64 values with Neumaier's improved
// Kahan–Babuska compensation, keeping the error independent of the number
// of addends. The zero value is an empty sum ready to use.
type KahanSum struct {
	sum float64
	c   float64
}

// Add accumulates x into the sum.
func (k *KahanSum) Add(x float64) {
	t := k.sum + x
	if abs(k.sum) >= abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum + k.c }

// Reset clears the accumulator.
func (k *KahanSum) Reset() { k.sum, k.c = 0, 0 }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

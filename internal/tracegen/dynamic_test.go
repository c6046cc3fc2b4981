package tracegen

import (
	"math"
	"reflect"
	"testing"
)

func dynBase(seed uint64) Config {
	cfg := SprintFiveTuple(5, seed)
	cfg.ArrivalRate = 200
	return cfg
}

func TestDynamicValidate(t *testing.T) {
	cases := []struct {
		name string
		dc   DynamicConfig
	}{
		{"zero bins", DynamicConfig{Base: dynBase(1), Bins: 0, Preset: PresetChurn}},
		{"unknown preset", DynamicConfig{Base: dynBase(1), Bins: 4, Preset: "weekly"}},
		{"empty preset", DynamicConfig{Base: dynBase(1), Bins: 4}},
		{"bad base", DynamicConfig{Base: Config{}, Bins: 4, Preset: PresetChurn}},
	}
	for _, c := range cases {
		if err := c.dc.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := (DynamicConfig{Base: dynBase(1), Bins: 6, Preset: PresetChurn}).Validate(); err != nil {
		t.Errorf("churn preset rejected: %v", err)
	}
	if err := (DynamicConfig{Base: dynBase(1), Bins: 6, Preset: PresetDiurnal}).Validate(); err != nil {
		t.Errorf("diurnal preset rejected: %v", err)
	}
}

func TestDynamicBinConfigs(t *testing.T) {
	churn := DynamicConfig{Base: dynBase(7), Bins: 6, Preset: PresetChurn}
	seeds := map[uint64]bool{}
	for b := 0; b < churn.Bins; b++ {
		cfg := churn.BinConfig(b)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("bin %d config invalid: %v", b, err)
		}
		if seeds[cfg.Seed] {
			t.Errorf("bin %d reuses an earlier bin's seed %d", b, cfg.Seed)
		}
		seeds[cfg.Seed] = true
		if cfg.ArrivalRate != churn.Base.ArrivalRate {
			t.Errorf("churn bin %d arrival rate %g drifted (aggregate must stay steady)", b, cfg.ArrivalRate)
		}
	}
	// Diurnal intensity swings around the base rate and returns after one
	// period.
	diurnal := DynamicConfig{Base: dynBase(7), Bins: 16, Preset: PresetDiurnal}
	lo, hi := math.Inf(1), math.Inf(-1)
	for b := 0; b < diurnal.Bins; b++ {
		r := diurnal.BinConfig(b).ArrivalRate
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	base := diurnal.Base.ArrivalRate
	if !(lo < 0.5*base && hi > 1.5*base) {
		t.Errorf("diurnal intensity swing [%g, %g] too flat around base %g", lo, hi, base)
	}
	r0 := diurnal.BinConfig(0).ArrivalRate
	r8 := diurnal.BinConfig(8).ArrivalRate
	if math.Abs(r0-r8) > 1e-9*base {
		t.Errorf("diurnal intensity not periodic: bin 0 rate %g, bin 8 rate %g", r0, r8)
	}
}

func TestChurnPairWeights(t *testing.T) {
	dc := DynamicConfig{Base: dynBase(11), Bins: 8, Preset: PresetChurn}
	const n = 600
	w0, err := dc.PairWeights(0, n)
	if err != nil {
		t.Fatal(err)
	}
	again, err := dc.PairWeights(0, n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w0, again) {
		t.Fatal("pair weights not deterministic")
	}
	for i, w := range w0 {
		if !(w > 0) {
			t.Fatalf("pair %d weight %g not positive", i, w)
		}
	}
	// Between consecutive bins, roughly churnFrac (0.4) of the weights
	// re-draw — the rest persist exactly.
	prev := w0
	for b := 1; b < dc.Bins; b++ {
		cur, err := dc.PairWeights(b, n)
		if err != nil {
			t.Fatal(err)
		}
		changed := 0
		for i := range cur {
			if cur[i] != prev[i] {
				changed++
			}
		}
		frac := float64(changed) / n
		if frac < 0.25 || frac > 0.55 {
			t.Errorf("bin %d: %.0f%% of weights churned, want ~40%%", b, frac*100)
		}
		prev = cur
	}
	// Out-of-range queries are rejected.
	if _, err := dc.PairWeights(-1, n); err == nil {
		t.Error("negative bin accepted")
	}
	if _, err := dc.PairWeights(dc.Bins, n); err == nil {
		t.Error("bin past the horizon accepted")
	}
	if _, err := dc.PairWeights(0, 0); err == nil {
		t.Error("zero pairs accepted")
	}
}

func TestDiurnalPairWeights(t *testing.T) {
	dc := DynamicConfig{Base: dynBase(13), Bins: 16, Preset: PresetDiurnal}
	const n = 200
	w0, err := dc.PairWeights(0, n)
	if err != nil {
		t.Fatal(err)
	}
	a := diurnalAmplitude
	for b := 0; b < dc.Bins; b++ {
		w, err := dc.PairWeights(b, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range w {
			if v < 1-a-1e-9 || v > 1+a+1e-9 {
				t.Fatalf("bin %d pair %d weight %g outside [1-A, 1+A]", b, i, v)
			}
		}
	}
	// One full period later the weights return.
	w8, err := dc.PairWeights(8, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w0 {
		if math.Abs(w0[i]-w8[i]) > 1e-9 {
			t.Fatalf("diurnal weights not periodic at pair %d: %g vs %g", i, w0[i], w8[i])
		}
	}
	// Phases differ across pairs: bin 0 weights are not all equal.
	allEqual := true
	for i := 1; i < n; i++ {
		if w0[i] != w0[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		t.Error("diurnal pairs share one phase")
	}
}

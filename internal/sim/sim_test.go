package sim

import (
	"math"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/sampler"
	"flowrank/internal/tracegen"
)

func smallTrace(t *testing.T, seconds float64, seed uint64) []flow.Record {
	t.Helper()
	cfg := tracegen.SprintFiveTuple(seconds, seed)
	cfg.ArrivalRate = 300 // keep unit tests quick
	recs, err := tracegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestConfigValidate(t *testing.T) {
	recs := smallTrace(t, 5, 1)
	good := Config{Records: recs, BinSeconds: 5, Horizon: 5, TopT: 5, Rates: []float64{0.1}, Runs: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Records: recs, BinSeconds: 0, Horizon: 5, TopT: 5, Rates: []float64{0.1}, Runs: 2},
		{Records: recs, BinSeconds: 5, Horizon: 0, TopT: 5, Rates: []float64{0.1}, Runs: 2},
		{Records: recs, BinSeconds: 5, Horizon: 5, TopT: 0, Rates: []float64{0.1}, Runs: 2},
		{Records: recs, BinSeconds: 5, Horizon: 5, TopT: 5, Rates: nil, Runs: 2},
		{Records: recs, BinSeconds: 5, Horizon: 5, TopT: 5, Rates: []float64{1.5}, Runs: 2},
		{Records: recs, BinSeconds: 5, Horizon: 5, TopT: 5, Rates: []float64{0.1}, Runs: 0},
		// Non-finite values fail the negated comparisons: these used to
		// panic in makeslice (bin width, horizon) or hang Run (rate).
		{Records: recs, BinSeconds: math.NaN(), Horizon: 5, TopT: 5, Rates: []float64{0.1}, Runs: 2},
		{Records: recs, BinSeconds: math.Inf(1), Horizon: 5, TopT: 5, Rates: []float64{0.1}, Runs: 2},
		{Records: recs, BinSeconds: 5, Horizon: math.NaN(), TopT: 5, Rates: []float64{0.1}, Runs: 2},
		{Records: recs, BinSeconds: 5, Horizon: math.Inf(1), TopT: 5, Rates: []float64{0.1}, Runs: 2},
		{Records: recs, BinSeconds: 5, Horizon: 5, TopT: 5, Rates: []float64{math.NaN()}, Runs: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunShape(t *testing.T) {
	recs := smallTrace(t, 30, 2)
	res, err := Run(Config{
		Records: recs, BinSeconds: 10, Horizon: 30, TopT: 5,
		Rates: []float64{0.01, 0.5}, Runs: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Bins) != 3 {
			t.Fatalf("rate %g: bins = %d, want 3", s.Rate, len(s.Bins))
		}
		for bi, b := range s.Bins {
			if b.Ranking.N() != 8 {
				t.Fatalf("bin %d: %d runs recorded", bi, b.Ranking.N())
			}
			if b.Flows <= 0 || b.Packets <= 0 {
				t.Fatalf("bin %d: empty original content", bi)
			}
			if b.Start != float64(bi)*10 {
				t.Fatalf("bin %d: start %g", bi, b.Start)
			}
		}
	}
	// Heavier sampling must rank better on average (summed over bins).
	var low, high float64
	for bi := range res.Series[0].Bins {
		low += res.Series[0].Bins[bi].Ranking.Mean()
		high += res.Series[1].Bins[bi].Ranking.Mean()
	}
	if high >= low {
		t.Errorf("ranking at p=0.5 (%g) should beat p=0.01 (%g)", high, low)
	}
}

func TestRunDeterministic(t *testing.T) {
	recs := smallTrace(t, 10, 4)
	cfg := Config{
		Records: recs, BinSeconds: 5, Horizon: 10, TopT: 3,
		Rates: []float64{0.1}, Runs: 5, Seed: 9,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range a.Series[0].Bins {
		if a.Series[0].Bins[bi].Ranking.Mean() != b.Series[0].Bins[bi].Ranking.Mean() {
			t.Fatal("same seed must give identical results")
		}
	}
	// The runs are added in run order whatever the worker count, so the
	// running means and deviations are bit-identical, not just close.
	for _, workers := range []int{1, 3} {
		wcfg := cfg
		wcfg.Workers = workers
		w, err := Run(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		for bi, wb := range w.Series[0].Bins {
			ab := a.Series[0].Bins[bi]
			if wb.Ranking != ab.Ranking || wb.Detection != ab.Detection {
				t.Fatalf("workers=%d bin %d: %+v, default workers %+v", workers, bi, wb, ab)
			}
		}
	}
	cfg.Seed = 10
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for bi := range a.Series[0].Bins {
		if a.Series[0].Bins[bi].Ranking.Mean() != c.Series[0].Bins[bi].Ranking.Mean() {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical results")
	}
}

func TestRunDetectionBelowRanking(t *testing.T) {
	recs := smallTrace(t, 20, 5)
	res, err := Run(Config{
		Records: recs, BinSeconds: 10, Horizon: 20, TopT: 10,
		Rates: []float64{0.05}, Runs: 10, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Series[0].Bins {
		if b.Detection.Mean() > b.Ranking.Mean()+1e-9 {
			t.Errorf("bin at %g: detection %g above ranking %g", b.Start, b.Detection.Mean(), b.Ranking.Mean())
		}
	}
}

func TestRunFullSamplingPerfect(t *testing.T) {
	recs := smallTrace(t, 10, 7)
	res, err := Run(Config{
		Records: recs, BinSeconds: 5, Horizon: 10, TopT: 10,
		Rates: []float64{1}, Runs: 3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Series[0].Bins {
		if b.Ranking.Mean() != 0 || b.Detection.Mean() != 0 {
			t.Errorf("p=1 should be perfect, bin at %g has ranking %g", b.Start, b.Ranking.Mean())
		}
	}
}

func TestRunAggregated(t *testing.T) {
	recs := smallTrace(t, 10, 11)
	res, err := Run(Config{
		Records: recs, Agg: flow.DstPrefix{Bits: 8}, BinSeconds: 10, Horizon: 10,
		TopT: 3, Rates: []float64{0.2}, Runs: 4, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	// /8 aggregation collapses the key space to at most 64 prefixes
	// (generator uses dst 128..191).
	if f := res.Series[0].Bins[0].Flows; f > 64 {
		t.Errorf("aggregated bin has %d flows, want <= 64", f)
	}
}

// TestFastMatchesPacketPath is the core cross-validation: the flow-bin
// fast path and the literal packet path are different realizations of the
// same experiment, so their per-bin metric means must agree within MC
// noise. The second case runs past the end of its 10 s trace: the bins
// beyond it have no packets, the engine emits nothing for them, and both
// paths must still record one zero per run there.
func TestFastMatchesPacketPath(t *testing.T) {
	for _, tc := range []struct {
		name                string
		seconds             float64
		binSeconds, horizon float64
		wantEmpty           bool
	}{
		{"full", 20, 10, 20, false},
		{"trailing empty bins", 10, 50, 400, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := smallTrace(t, tc.seconds, 13)
			cfg := Config{
				Records: recs, BinSeconds: tc.binSeconds, Horizon: tc.horizon, TopT: 5,
				Rates: []float64{0.1}, Runs: 40, Seed: 14,
			}
			fast, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pkts, err := RunPackets(cfg, func(rate float64) sampler.Sampler {
				return sampler.NewBernoulli(rate, 77)
			})
			if err != nil {
				t.Fatal(err)
			}
			empty := 0
			for bi := range fast.Series[0].Bins {
				f := fast.Series[0].Bins[bi]
				p := pkts.Series[0].Bins[bi]
				if f.Ranking.N() != int64(cfg.Runs) || p.Ranking.N() != int64(cfg.Runs) ||
					f.Detection.N() != int64(cfg.Runs) || p.Detection.N() != int64(cfg.Runs) {
					t.Errorf("bin %d: runs recorded fast %d/%d, packet %d/%d, want %d",
						bi, f.Ranking.N(), f.Detection.N(), p.Ranking.N(), p.Detection.N(), cfg.Runs)
				}
				if f.Packets == 0 {
					empty++
					if f.Flows != 0 || p.Flows != 0 || p.Packets != 0 {
						t.Errorf("empty bin %d: flows %d vs %d, packet-path packets %d",
							bi, f.Flows, p.Flows, p.Packets)
					}
				}
				if f.Flows != p.Flows {
					// Placement realizations differ slightly between paths (the
					// packet path re-streams), so flow counts can differ by the
					// handful of flows whose packets all fell outside the bin
					// (two flows of slack for the sparse bins at a trace's end).
					if math.Abs(float64(f.Flows-p.Flows)) > 0.05*float64(f.Flows)+2 {
						t.Errorf("bin %d: flows %d vs %d", bi, f.Flows, p.Flows)
					}
				}
				seF := f.Ranking.Std()/math.Sqrt(float64(f.Ranking.N())) + 1e-9
				seP := p.Ranking.Std()/math.Sqrt(float64(p.Ranking.N())) + 1e-9
				diff := math.Abs(f.Ranking.Mean() - p.Ranking.Mean())
				tol := 6*(seF+seP) + 0.15*(f.Ranking.Mean()+p.Ranking.Mean())/2
				if diff > tol {
					t.Errorf("bin %d: fast ranking %g vs packet %g (tol %g)", bi, f.Ranking.Mean(), p.Ranking.Mean(), tol)
				}
			}
			if got := empty > 0; got != tc.wantEmpty {
				t.Errorf("%d empty bins, want some: %v", empty, tc.wantEmpty)
			}
		})
	}
}

func TestRunPacketsPeriodicSampler(t *testing.T) {
	// Periodic sampling should behave like Bernoulli at the same rate
	// (the paper's §2 observation), at least to within noise on a small
	// trace.
	recs := smallTrace(t, 20, 15)
	cfg := Config{
		Records: recs, BinSeconds: 10, Horizon: 20, TopT: 5,
		Rates: []float64{0.1}, Runs: 15, Seed: 16,
	}
	per, err := RunPackets(cfg, func(rate float64) sampler.Sampler {
		return sampler.NewPeriodic(int(math.Round(1/rate)), 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	ber, err := RunPackets(cfg, func(rate float64) sampler.Sampler {
		return sampler.NewBernoulli(rate, 6)
	})
	if err != nil {
		t.Fatal(err)
	}
	var perSum, berSum float64
	for bi := range per.Series[0].Bins {
		perSum += per.Series[0].Bins[bi].Ranking.Mean()
		berSum += ber.Series[0].Bins[bi].Ranking.Mean()
	}
	if perSum > 3*berSum+10 || berSum > 3*perSum+10 {
		t.Errorf("periodic (%g) and bernoulli (%g) diverge", perSum, berSum)
	}
}

func BenchmarkRunFast(b *testing.B) {
	cfg := tracegen.SprintFiveTuple(60, 1)
	cfg.ArrivalRate = 500
	recs, err := tracegen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{
			Records: recs, BinSeconds: 60, Horizon: 60, TopT: 10,
			Rates: []float64{0.1}, Runs: 5, Seed: uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

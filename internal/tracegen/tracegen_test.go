package tracegen

import (
	"math"
	"testing"

	"flowrank/internal/dist"
	"flowrank/internal/flow"
	"flowrank/internal/randx"
)

func TestGenerateCalibration(t *testing.T) {
	cfg := SprintFiveTuple(120, 1)
	recs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Poisson arrivals: expect 2360*120 = 283200 ± a few sigma.
	want := float64(cfg.ExpectedFlows())
	if math.Abs(float64(len(recs))-want) > 6*math.Sqrt(want) {
		t.Errorf("generated %d flows, want ≈ %g", len(recs), want)
	}
	var pktSum, durSum float64
	var byteSum int64
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			t.Fatalf("invalid record: %v", err)
		}
		if r.Start < 0 || r.Start >= cfg.Duration {
			t.Fatalf("arrival %g outside trace", r.Start)
		}
		pktSum += float64(r.Packets)
		durSum += r.Duration
		byteSum += r.Bytes
	}
	meanPkts := pktSum / float64(len(recs))
	// Pareto beta=1.5 sample means converge slowly; generous band.
	if meanPkts < 7 || meanPkts > 13 {
		t.Errorf("mean flow size %g packets, want ≈ 9.6", meanPkts)
	}
	meanDur := durSum / float64(len(recs))
	if meanDur < 10 || meanDur > 16 {
		t.Errorf("mean duration %g s, want ≈ 13", meanDur)
	}
	if byteSum != int64(pktSum)*500 {
		t.Errorf("bytes %d inconsistent with packets*500", byteSum)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(SprintFiveTuple(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(SprintFiveTuple(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c, _ := Generate(SprintFiveTuple(10, 8))
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("different seeds should give different traces")
	}
}

func TestPrefixFlowsHaveDistinctPrefixKeys(t *testing.T) {
	recs, err := Generate(SprintPrefix24(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[flow.Key]bool{}
	for _, r := range recs {
		if r.Key.Dst[3] != 0 || r.Key.SrcPort != 0 || r.Key.DstPort != 0 {
			t.Fatalf("prefix flow key not normalized: %v", r.Key)
		}
		// Aggregating must be a no-op.
		if (flow.DstPrefix{Bits: 24}).Aggregate(r.Key) != r.Key {
			t.Fatalf("prefix key changes under aggregation: %v", r.Key)
		}
		if seen[r.Key] {
			t.Fatalf("duplicate prefix key %v", r.Key)
		}
		seen[r.Key] = true
	}
}

func TestFiveTupleKeysUnique(t *testing.T) {
	recs, err := Generate(SprintFiveTuple(30, 3))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[flow.Key]bool, len(recs))
	dups := 0
	for _, r := range recs {
		if seen[r.Key] {
			dups++
		}
		seen[r.Key] = true
	}
	if dups > 0 {
		t.Errorf("%d duplicate 5-tuples in %d flows", dups, len(recs))
	}
}

func TestAbilenePresetShortTail(t *testing.T) {
	cfg := Abilene(60, 4)
	recs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 4*60*1000 {
		t.Errorf("Abilene should have more flows than Sprint: %d", len(recs))
	}
	// Short tail: the largest flow of N lognormal draws is far smaller
	// relative to the mean than a Pareto(1.5) max would be.
	maxPkts := 0
	for _, r := range recs {
		if r.Packets > maxPkts {
			maxPkts = r.Packets
		}
	}
	n := float64(len(recs))
	paretoMax := 3.2 * math.Pow(n, 1/1.5) // typical Pareto(beta=1.5) maximum
	if float64(maxPkts) > paretoMax/3 {
		t.Errorf("Abilene max flow %d packets looks heavy-tailed (Pareto-typical %g)", maxPkts, paretoMax)
	}
}

func TestConfigValidate(t *testing.T) {
	good := SprintFiveTuple(10, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Duration: 10, ArrivalRate: 100, MeanPacketBytes: 500, Durations: LognormalDurationWithMean(13, 1)},
		{Duration: 10, ArrivalRate: 100, SizeDist: dist.ParetoWithMean(9.6, 1.5), MeanPacketBytes: 500},
		{Duration: -1, ArrivalRate: 100, SizeDist: dist.ParetoWithMean(9.6, 1.5), MeanPacketBytes: 500, Durations: LognormalDurationWithMean(13, 1)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := Generate(Config{}); err == nil {
		t.Error("Generate must validate")
	}
}

func TestMixtureSizeDistDropsIn(t *testing.T) {
	// A multi-class size law must work as a drop-in Config.SizeDist: the
	// generated trace keeps the mixture mean and contains both the mice
	// bulk and the elephant class.
	mix, err := dist.NewMixture(
		dist.Component{Weight: 0.95, Dist: dist.ExponentialWithMean(1, 5)},
		dist.Component{Weight: 0.05, Dist: dist.ParetoWithMean(200, 1.8)},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SprintFiveTuple(60, 9)
	cfg.ArrivalRate = 1000
	cfg.SizeDist = mix
	recs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pktSum float64
	elephants := 0
	for _, r := range recs {
		pktSum += float64(r.Packets)
		if r.Packets >= 80 { // Pareto class scale ≈ 89, exponential P{>80} ≈ 1e-7
			elephants++
		}
	}
	mean := pktSum / float64(len(recs))
	want := mix.Mean()
	if mean < 0.7*want || mean > 1.4*want {
		t.Errorf("mean flow size %g packets, mixture mean %g", mean, want)
	}
	share := float64(elephants) / float64(len(recs))
	if share < 0.03 || share > 0.07 {
		t.Errorf("elephant class share %g, want ~0.05", share)
	}
}

func TestDurationModels(t *testing.T) {
	g := randx.New(5)
	ln := LognormalDurationWithMean(13, 1.0)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		d := ln.Duration(g, 10)
		if d <= 0 {
			t.Fatal("non-positive duration")
		}
		sum += d
	}
	if mean := sum / n; math.Abs(mean-13) > 0.5 {
		t.Errorf("lognormal duration mean %g, want 13", mean)
	}
}

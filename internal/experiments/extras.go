package experiments

import (
	"fmt"
	"math"

	"flowrank/internal/adaptive"
	"flowrank/internal/core"
	"flowrank/internal/dist"
	"flowrank/internal/flow"
	"flowrank/internal/invert"
	"flowrank/internal/randx"
	"flowrank/internal/report"
	"flowrank/internal/sampler"
	"flowrank/internal/seqest"
	"flowrank/internal/sim"
	"flowrank/internal/tracegen"
)

// extraKernels compares the paper's pure-Gaussian kernel against the
// hybrid kernel that switches to the exact binomial in the small-pS
// regime, at the two N scales where they diverge most visibly.
func extraKernels(opts Options) ([]*report.Table, error) {
	rates := rateGrid(opts.Full)
	t := &report.Table{
		ID:    "kernels",
		Title: "ranking metric: Gaussian (paper Eq. 2) vs hybrid kernel, t = 10, beta = 1.5",
		Columns: []string{"p(%)",
			"N=0.7M gauss", "N=0.7M hybrid",
			"N=3.5M gauss", "N=3.5M hybrid"},
	}
	g07 := sprintModel(opts, nFiveTuple, 10, meanPktsFiveTuple, defaultBeta)
	h07 := g07
	h07.Kernel = core.KernelHybrid
	g35 := sprintModel(opts, 3_500_000, 10, meanPktsFiveTuple, defaultBeta)
	h35 := g35
	h35.Kernel = core.KernelHybrid
	for _, p := range rates {
		t.AddRow(percent(p),
			g07.RankingMetric(p), h07.RankingMetric(p),
			g35.RankingMetric(p), h35.RankingMetric(p))
	}
	t.Notes = append(t.Notes,
		"at p <= ~0.5% the Gaussian tails overestimate misranking against the bulk of tiny flows",
		"direct simulation at N=3.5M, p=0.1% gives ~12 swapped pairs: hybrid ~40, gaussian ~680")
	return []*report.Table{t}, nil
}

// extraFastpath cross-checks the flow-bin fast path against the literal
// packet path on a common trace.
func extraFastpath(opts Options) ([]*report.Table, error) {
	cfg := tracegen.SprintFiveTuple(120, opts.seed())
	cfg.ArrivalRate = 200
	records, err := tracegen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	runs := 20
	if opts.Full {
		runs = 60
	}
	scfg := sim.Config{
		Records: records, BinSeconds: 60, Horizon: 120, TopT: 10,
		Rates: []float64{0.1}, Runs: runs, Seed: opts.seed(), Workers: opts.Workers,
	}
	fast, err := sim.Run(scfg)
	if err != nil {
		return nil, err
	}
	pkts, err := sim.RunPackets(scfg, func(rate float64) sampler.Sampler {
		return sampler.NewBernoulli(rate, opts.seed()+5)
	})
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "fastpath",
		Title:   "flow-bin fast path vs literal packet path, p = 10%, top 10",
		Columns: []string{"bin", "fast mean", "fast std", "packet mean", "packet std"},
	}
	for bi := range fast.Series[0].Bins {
		f := fast.Series[0].Bins[bi]
		p := pkts.Series[0].Bins[bi]
		t.AddRow(bi, f.Ranking.Mean(), f.Ranking.Std(), p.Ranking.Mean(), p.Ranking.Std())
	}
	t.Notes = append(t.Notes,
		"the two engines are different realizations of the same distribution; means agree within noise",
		fmt.Sprintf("%d runs per engine", runs))
	return []*report.Table{t}, nil
}

// extraSeqest quantifies future work #2: TCP sequence numbers as a size
// estimator versus count scaling.
func extraSeqest(opts Options) ([]*report.Table, error) {
	g := randx.New(opts.seed() + 21)
	t := &report.Table{
		ID:      "seqest",
		Title:   "flow byte-size estimation: sequence-span vs count-scaling, relative RMSE (%)",
		Columns: []string{"p(%)", "flow pkts", "span rmse%", "count rmse%", "gain"},
	}
	trials := 400
	if opts.Full {
		trials = 2000
	}
	for _, p := range []float64{0.01, 0.05, 0.1} {
		for _, pkts := range []int{200, 2000, 20000} {
			var seSpan, seCount float64
			used := 0
			for trial := 0; trial < trials; trial++ {
				est := newSeqTrial(g, p, pkts)
				if est == nil {
					continue
				}
				seSpan += est.spanErr * est.spanErr
				seCount += est.countErr * est.countErr
				used++
			}
			if used == 0 {
				t.AddRow(percent(p), pkts, "n/a", "n/a", "n/a")
				continue
			}
			rs := math.Sqrt(seSpan/float64(used)) * 100
			rc := math.Sqrt(seCount/float64(used)) * 100
			t.AddRow(percent(p), pkts, rs, rc, rc/math.Max(rs, 1e-9))
		}
	}
	t.Notes = append(t.Notes,
		"paper future work #2: protocol headers refine sampled size estimates",
		"gain: count-scaling RMSE divided by sequence-span RMSE")
	return []*report.Table{t}, nil
}

type seqTrial struct {
	spanErr, countErr float64
}

// newSeqTrial simulates one sampled TCP flow and returns relative errors,
// or nil if fewer than two packets were sampled.
func newSeqTrial(g *randx.RNG, p float64, pkts int) *seqTrial {
	const mss = 1460
	key := flow.Key{Src: flow.Addr{10, 0, 0, 1}, Proto: flow.ProtoTCP}
	est := seqest.New(p)
	seq := g.Uint64() // random initial sequence number (wraps exercised)
	trueBytes := float64(pkts) * mss
	for i := 0; i < pkts; i++ {
		if g.Bernoulli(p) {
			est.Observe(key, uint32(seq), mss)
		}
		seq += mss
	}
	if est.SampledPackets(key) < 2 {
		return nil
	}
	span, _ := est.EstimateBytes(key)
	count, _ := est.CountScaledBytes(key)
	return &seqTrial{
		spanErr:  (span - trueBytes) / trueBytes,
		countErr: (count - trueBytes) / trueBytes,
	}
}

// extraAdaptive demonstrates future work #3 end to end.
func extraAdaptive(opts Options) ([]*report.Table, error) {
	g := randx.New(opts.seed() + 33)
	trueN := 50_000
	if opts.Full {
		trueN = 200_000
	}
	d := dist.ParetoWithMean(meanPktsFiveTuple, defaultBeta)
	pObs := 0.1
	var sampled []float64
	for i := 0; i < trueN; i++ {
		s := int(math.Max(1, math.Round(d.Rand(g))))
		if got := g.Binomial(s, pObs); got > 0 {
			sampled = append(sampled, float64(got))
		}
	}
	est, err := invert.Parametric{}.Invert(sampled, pObs)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "adaptive",
		Title:   fmt.Sprintf("adaptive controller: observed one bin at p = 10%% of N = %d Pareto(9.6, 1.5) flows", trueN),
		Columns: []string{"goal", "t", "fitted N", "fitted mean", "recommended p(%)", "model metric @p"},
	}
	for _, tt := range []int{5, 10} {
		for _, det := range []bool{false, true} {
			ctl := adaptive.Controller{Target: 1, TopT: tt, Detection: det, Workers: opts.Workers}
			rate, model, err := ctl.RecommendEstimate(est)
			if err != nil {
				return nil, err
			}
			goal := "ranking<=1"
			metric := model.RankingMetric(rate)
			if det {
				goal = "detection<=1"
				metric = model.DetectionMetric(rate)
			}
			t.AddRow(goal, tt, model.N, model.Dist.Mean(), rate*100, metric)
		}
	}
	t.Notes = append(t.Notes,
		"paper future work #3: set the sampling rate from observed traffic",
		"fitted N inverts the missed-flow probability; tail index via Hill estimator on sampled sizes")
	return []*report.Table{t}, nil
}

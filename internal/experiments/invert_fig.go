package experiments

import (
	"fmt"
	"math"

	"flowrank/internal/dist"
	"flowrank/internal/invert"
	"flowrank/internal/randx"
	"flowrank/internal/report"
)

// extraInvert compares the three flow-size distribution inverters —
// 1/p scaling (naive), Chabchoub-style tail rescaling, and the EM/MLE
// inversion over the binomial thinning kernel — on synthetic traces drawn
// from the module's three workload shapes, reporting the
// Kolmogorov–Smirnov distance to the true (empirical) size distribution
// and the relative mean error, per sampling rate.
func extraInvert(opts Options) ([]*report.Table, error) {
	n := 20_000
	rates := []float64{0.01, 0.05, 0.1}
	if opts.Full {
		n = 100_000
		rates = []float64{0.001, 0.01, 0.05, 0.1}
	}
	mix, err := dist.NewMixture(
		dist.Component{Weight: 3, Dist: dist.ExponentialWithMean(1, 40)},
		dist.Component{Weight: 1, Dist: dist.ParetoWithMean(400, 1.5)},
	)
	if err != nil {
		return nil, err
	}
	laws := []struct {
		name string
		d    dist.SizeDist
	}{
		{"pareto", dist.ParetoWithMean(9.6, 1.5)},
		{"weibull", dist.Weibull{Min: 1, Lambda: 60, K: 0.7}},
		{"mixture", mix},
	}
	estimators := []invert.Estimator{invert.Naive{}, invert.TailScaling{}, invert.EM{}}
	t := &report.Table{
		ID: "invert",
		Title: fmt.Sprintf(
			"flow-size inversion from sampled counts: KS distance and mean error vs p (%d flows/trace)", n),
		Columns: []string{"law", "p(%)",
			"naive KS", "tail KS", "em KS",
			"naive mean err%", "tail mean err%", "em mean err%"},
	}
	for _, law := range laws {
		for _, p := range rates {
			// A fresh deterministic stream per cell: draw the original
			// sizes, thin each with an exact binomial, keep the observed
			// flows — exactly what a sampling monitor sees.
			g := randx.New(opts.seed() + 41)
			truth := make([]float64, 0, n)
			counts := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				s := int(math.Max(1, math.Round(law.d.Rand(g))))
				truth = append(truth, float64(s))
				if k := g.Binomial(s, p); k > 0 {
					counts = append(counts, float64(k))
				}
			}
			emp := dist.NewDiscrete(dist.Tally(truth))
			probes := invert.QuantileProbes(emp, 256)
			row := []interface{}{law.name, percent(p)}
			var ks, meanErr []interface{}
			for _, est := range estimators {
				e, err := est.Invert(counts, p)
				if err != nil {
					return nil, fmt.Errorf("invert: %s on %s at p=%g: %w", est.Name(), law.name, p, err)
				}
				ks = append(ks, invert.KolmogorovDistance(e.Dist, emp, probes))
				meanErr = append(meanErr, 100*math.Abs(e.Mean-emp.Mean())/emp.Mean())
			}
			row = append(row, ks...)
			row = append(row, meanErr...)
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"KS: sup-distance between the estimated and true size CCDFs over 256 quantile probes",
		"naive scaling is blind to the flows sampling missed: its KS floor is the missed-flow mass",
		"EM inverts the binomial thinning kernel over a discretized support (Clegg et al.); tail follows Chabchoub et al.")
	return []*report.Table{t}, nil
}

// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations and the extensions README describes
// (its "Layout" section and one section per extension). It is the single
// implementation behind cmd/flowrank-bench and the repository's
// benchmark suite.
//
// Each experiment is identified by an id ("fig01" … "fig16", or one of
// the extras listed by IDs) and produces report tables whose rows/series
// correspond to the lines of the paper's figure. Options.Full switches
// from laptop-scale defaults to the paper's full scale (30-minute traces,
// 30 sampling runs, dense rate grids).
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"flowrank/internal/report"
)

// Options tune experiment scale.
type Options struct {
	// Full selects paper-scale evaluation; the default is a reduced
	// scale that preserves every qualitative shape at a small fraction
	// of the cost (each table notes its scale).
	Full bool
	// Seed drives every random choice.
	Seed uint64
	// Workers bounds simulation parallelism (0 = GOMAXPROCS).
	Workers int
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 20050101 // CoNEXT 2005, for flavor
	}
	return o.Seed
}

// registry maps experiment ids to implementations.
var registry = map[string]struct {
	fn    func(Options) ([]*report.Table, error)
	title string
}{
	"fig01":    {fig01, "optimal sampling rate, log-spaced flow sizes (§3.2)"},
	"fig02":    {fig02, "optimal sampling rate, linear-spaced flow sizes (§3.2)"},
	"fig03":    {fig03, "absolute error of the Gaussian approximation at p=1% (§4)"},
	"fig04":    {fig04.run, "ranking metric vs p, 5-tuple, t sweep (§6.1)"},
	"fig05":    {fig05.run, "ranking metric vs p, /24 prefix, t sweep (§6.1)"},
	"fig06":    {fig06.run, "ranking metric vs p, 5-tuple, beta sweep (§6.2)"},
	"fig07":    {fig07.run, "ranking metric vs p, /24 prefix, beta sweep (§6.2)"},
	"fig08":    {fig08.run, "ranking metric vs p, 5-tuple, N sweep (§6.3)"},
	"fig09":    {fig09.run, "ranking metric vs p, /24 prefix, N sweep (§6.3)"},
	"fig10":    {fig10.run, "detection metric vs p, 5-tuple, t sweep (§7.2)"},
	"fig11":    {fig11.run, "detection metric vs p, /24 prefix, t sweep (§7.2)"},
	"fig12":    {fig12, "trace-driven ranking vs time, 5-tuple, top 10 (§8.2)"},
	"fig13":    {fig13, "trace-driven ranking vs time, /24 prefix, top 10 (§8.2)"},
	"fig14":    {fig14, "trace-driven detection vs time, 5-tuple, top 10 (§8.2)"},
	"fig15":    {fig15, "trace-driven detection vs time, /24 prefix, top 10 (§8.2)"},
	"fig16":    {fig16, "trace-driven ranking vs time, Abilene-like short tail (§8.3)"},
	"kernels":  {extraKernels, "ablation: Gaussian vs hybrid misranking kernel"},
	"fastpath": {extraFastpath, "ablation: flow-bin fast path vs literal packet path"},
	"sketch":   {extraSketch, "extension: bounded-memory ranking (future work #1): Space-Saving/Count-Min vs exact under sampling"},
	"seqest":   {extraSeqest, "extension: TCP sequence-number size refinement (future work #2)"},
	"adaptive": {extraAdaptive, "extension: adaptive sampling-rate controller (future work #3)"},
	"invert":   {extraInvert, "extension: flow-size distribution inversion from sampled counts"},
	"coord":    {extraCoord, "extension: network-wide coordinated sampling on a fat-tree topology"},
	"dynamic":  {extraDynamic, "extension: dynamic per-bin control plane on a churning fat-tree workload"},
}

// IDs returns all experiment ids in a stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the one-line description of an experiment id.
func Title(id string) string {
	if e, ok := registry[id]; ok {
		return e.title
	}
	return ""
}

// Run executes one experiment.
func Run(id string, opts Options) ([]*report.Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return e.fn(opts)
}

// rateGrid is the sampling-rate axis of the model figures (the paper
// plots 0.1%–50% on a log axis).
func rateGrid(full bool) []float64 {
	if full {
		return []float64{0.001, 0.002, 0.003, 0.005, 0.01, 0.02, 0.03, 0.05,
			0.1, 0.15, 0.2, 0.3, 0.5}
	}
	return []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.5}
}

// percent renders a rate as the paper's percent axis.
func percent(p float64) string { return report.FormatFloat(p * 100) }

// memoized simulation results shared between figure pairs (12/14, 13/15)
// so the detection figure does not repeat the ranking figure's runs.
var (
	simCacheMu sync.Mutex
	simCache   = map[string]interface{}{}
)

func simCached(key string, build func() (interface{}, error)) (interface{}, error) {
	simCacheMu.Lock()
	defer simCacheMu.Unlock()
	if v, ok := simCache[key]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	simCache[key] = v
	return v, nil
}

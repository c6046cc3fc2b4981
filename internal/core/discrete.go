package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"flowrank/internal/numeric"
)

// DiscreteModel evaluates the paper's metrics by direct summation of the
// discrete formulas (Eq. 1 and Eq. 3) over an explicit finite flow-size
// pmf. Its cost grows with the square of the support size, so it is only
// practical for small scenarios; it is the ground truth the continuous
// quadrature model and the Monte-Carlo simulators are validated against.
//
// Conventions: flow sizes are the indices s = 1..len(PMF)-1 with
// probabilities PMF[s] (PMF[0] must be zero). A flow of size s belongs to
// the top-t list iff at most t-1 other flows are strictly larger; a tied
// flow therefore does not displace it. (The paper's Eq. 3 is ambiguous for
// exact ties — its flow sizes are continuous — and we resolve ties with the
// strict convention used by the simulator in internal/metrics.)
type DiscreteModel struct {
	// PMF[s] is the probability that a flow has exactly s packets.
	PMF []float64
	// N is the total number of flows; T the top-list length.
	N, T int

	// Workers bounds the parallelism of the misranking-table
	// construction: 0 means GOMAXPROCS, 1 forces the serial path. Any
	// value produces the identical table — rows are independent and each
	// cell is written exactly once — so Workers is purely a latency knob.
	Workers int
}

// Validate checks parameters and that PMF is a distribution.
func (dm DiscreteModel) Validate() error {
	if dm.N < 2 || dm.T < 1 || dm.T >= dm.N {
		return fmt.Errorf("core: discrete model needs 2 <= N and 1 <= T < N, got N=%d T=%d", dm.N, dm.T)
	}
	if len(dm.PMF) < 2 {
		return fmt.Errorf("core: discrete pmf must cover sizes >= 1")
	}
	if dm.PMF[0] != 0 {
		return fmt.Errorf("core: PMF[0] = %g, flows of zero packets are not allowed", dm.PMF[0])
	}
	var sum numeric.KahanSum
	for s, ps := range dm.PMF {
		if ps < 0 {
			return fmt.Errorf("core: PMF[%d] = %g is negative", s, ps)
		}
		sum.Add(ps)
	}
	if d := sum.Sum(); d < 0.999999 || d > 1.000001 {
		return fmt.Errorf("core: pmf sums to %g, want 1", d)
	}
	return nil
}

// ccdfStrict returns gt[s] = P{S > s} for s = 0..M.
func (dm DiscreteModel) ccdfStrict() []float64 {
	m := len(dm.PMF) - 1
	gt := make([]float64, m+1)
	var tail numeric.KahanSum
	gt[m] = 0 // nothing exceeds the largest size
	for s := m - 1; s >= 0; s-- {
		tail.Add(dm.PMF[s+1])
		gt[s] = tail.Sum()
	}
	return gt
}

// misrankTable returns pm[i][j] = MisrankExact(i, j, p) for 1 <= i, j <= M
// (symmetric; the diagonal is the equal-size convention).
//
// Rows are sharded across a worker pool: worker of row i writes the upper
// row segment pm[i][i..m] and its mirror, the lower column segment
// pm[i..m][i]. Those segments partition the table, so every cell is
// written by exactly one worker and the result is identical for any
// worker count — MisrankExact(i, j, p) does not depend on the schedule.
func (dm DiscreteModel) misrankTable(p float64) [][]float64 {
	m := len(dm.PMF) - 1
	pm := make([][]float64, m+1)
	for i := 1; i <= m; i++ {
		pm[i] = make([]float64, m+1)
	}
	workers := dm.workers()
	if workers > m {
		workers = m
	}
	if workers <= 1 {
		for i := 1; i <= m; i++ {
			misrankRow(pm, i, m, p)
		}
		return pm
	}
	// Dynamic row scheduling: row i costs O(m-i), so a static split would
	// leave the last workers idle. An atomic ticket balances the pool.
	var next atomic.Int64
	next.Store(1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i > m {
					return
				}
				misrankRow(pm, i, m, p)
			}
		}()
	}
	wg.Wait()
	return pm
}

// misrankRow fills row i of the symmetric misranking table: the cells
// pm[i][j] for j >= i and their mirrors pm[j][i].
func misrankRow(pm [][]float64, i, m int, p float64) {
	for j := i; j <= m; j++ {
		v := MisrankExact(i, j, p)
		pm[i][j] = v
		pm[j][i] = v
	}
}

// workers resolves the Workers field: 0 means GOMAXPROCS.
func (dm DiscreteModel) workers() int {
	if dm.Workers > 0 {
		return dm.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RankingMetric returns the §5 metric (2N−t−1)·t/2 · P̄mt evaluated by
// direct summation. Each call builds the strict CCDF and the O(max²)
// misranking table for p.
func (dm DiscreteModel) RankingMetric(p float64) float64 {
	if err := dm.Validate(); err != nil {
		panic(err)
	}
	return dm.rankingOver(dm.ccdfStrict(), dm.misrankTable(p))
}

// rankingOver is RankingMetric over tables the caller built: gt from
// ccdfStrict, pm from misrankTable at the rate in question.
func (dm DiscreteModel) rankingOver(gt []float64, pm [][]float64) float64 {
	mMax := len(dm.PMF) - 1

	// P̄mt · (t/N) = Σ_i pmf_i [ Pt(i,t,N-1)·Σ_{j<=i} p_j·Pm +
	//                            Pt(i,t-1,N-1)·Σ_{j>i} p_j·Pm ]
	// with the membership factor Pt(i,t,N) cancelled against the
	// conditioning denominator, exactly as in the continuous model. Ties
	// (j == i) use the equal-size misranking probability and do not
	// displace flow i from the top list.
	var outer numeric.KahanSum
	for i := 1; i <= mMax; i++ {
		pi := dm.PMF[i]
		if pi == 0 {
			continue
		}
		wSame := TopProb(gt[i], dm.T, dm.N-1, false)
		wDisp := TopProb(gt[i], dm.T-1, dm.N-1, false)
		var below, above numeric.KahanSum
		for j := 1; j <= i; j++ {
			if dm.PMF[j] != 0 {
				below.Add(dm.PMF[j] * pm[j][i])
			}
		}
		for j := i + 1; j <= mMax; j++ {
			if dm.PMF[j] != 0 {
				above.Add(dm.PMF[j] * pm[i][j])
			}
		}
		outer.Add(pi * (wSame*below.Sum() + wDisp*above.Sum()))
	}
	n, t := float64(dm.N), float64(dm.T)
	return (2*n - t - 1) / 2 * n * outer.Sum()
}

// DetectionMetric returns the §7 metric t(N−t)·P̄*mt evaluated by direct
// summation: N(N−1) Σ_i Σ_{j<i} p_i p_j P*t(j,i) Pm(j,i).
func (dm DiscreteModel) DetectionMetric(p float64) float64 {
	if err := dm.Validate(); err != nil {
		panic(err)
	}
	return dm.detectionOver(dm.ccdfStrict(), dm.misrankTable(p))
}

// detectionOver is DetectionMetric over the same tables as rankingOver.
func (dm DiscreteModel) detectionOver(gt []float64, pm [][]float64) float64 {
	mMax := len(dm.PMF) - 1

	pmfBig := make([]float64, 0, dm.T)
	var outer numeric.KahanSum
	for i := 1; i <= mMax; i++ {
		pi := dm.PMF[i]
		if pi == 0 {
			continue
		}
		pmfBig = topPMF(pmfBig, gt[i], dm.T, dm.N, false)
		var inner numeric.KahanSum
		for j := 1; j < i; j++ {
			pj := dm.PMF[j]
			if pj == 0 {
				continue
			}
			joint := JointTopProb(pmfBig, gt[j], gt[i], dm.T, dm.N, false)
			inner.Add(pj * joint * pm[j][i])
		}
		outer.Add(pi * inner.Sum())
	}
	n := float64(dm.N)
	return n * (n - 1) * outer.Sum()
}

// GeometricPMF returns a truncated geometric flow-size pmf on sizes
// 1..max with success probability q, a convenient light-tailed test
// distribution: P{S = s} ∝ (1-q)^(s-1).
func GeometricPMF(q float64, max int) []float64 {
	pmf := make([]float64, max+1)
	var norm numeric.KahanSum
	v := 1.0
	for s := 1; s <= max; s++ {
		pmf[s] = v
		norm.Add(v)
		v *= 1 - q
	}
	for s := 1; s <= max; s++ {
		pmf[s] /= norm.Sum()
	}
	return pmf
}

// ZipfPMF returns a truncated power-law pmf on sizes 1..max:
// P{S = s} ∝ s^-(alpha+1), the discrete cousin of Pareto(shape alpha).
func ZipfPMF(alpha float64, max int) []float64 {
	pmf := make([]float64, max+1)
	var norm numeric.KahanSum
	for s := 1; s <= max; s++ {
		v := math.Pow(float64(s), -(alpha + 1))
		pmf[s] = v
		norm.Add(v)
	}
	for s := 1; s <= max; s++ {
		pmf[s] /= norm.Sum()
	}
	return pmf
}

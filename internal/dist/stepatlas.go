package dist

import (
	"math"
	"sort"
)

// The step atlas: exact quantiles across CCDF jumps.
//
// If the mixture has an atom at a with mass p = P{S = a} > 0, then for
// every u in (CCDF(a), CCDF(a) + p] the pseudo-inverse
// sup{x : CCDF(x) >= u} is exactly a — below a the CCDF is at least
// CCDF(a) + p regardless of what the continuous components do, and at a
// it has already dropped below u. Bisection can only approach a from
// below, to within its termination width, and a size a hair under an atom
// sits on the other side of every comparison with that atom. A spliced
// Mixture{Discrete, Pareto} — exactly what invert.TailScaling produces —
// puts the body's whole probability mass on sample atoms, so most of its
// quantile calls land inside a jump.
//
// Each atom owns a disjoint u-interval, the atlas is a sorted array of
// those intervals, and a lookup is one binary search with no CCDF
// evaluation at all (bisection is ~50).
type stepAtlas struct {
	atoms []float64 // ascending atom values
	ulo   []float64 // ulo[i] = CCDF(atoms[i]), exclusive lower bound
	uhi   []float64 // uhi[i] = CCDF(atoms[i]-), inclusive upper bound
}

// stepAtlasMaxAtoms caps construction cost: beyond ~1M distinct atoms the
// O(atoms·components·log) build and the atlas's memory stop paying for
// themselves, and bisection remains correct to its termination width.
const stepAtlasMaxAtoms = 1 << 20

// stepAtlas returns the lazily built atlas, nil when the mixture has no
// Discrete component (or too many atoms to be worth indexing).
func (m *Mixture) stepAtlas() *stepAtlas {
	m.atlasOnce.Do(func() { m.atlas = buildStepAtlas(m) })
	return m.atlas
}

func buildStepAtlas(m *Mixture) *stepAtlas {
	var atoms []float64
	for _, c := range m.comps {
		if d, ok := c.Dist.(*Discrete); ok {
			atoms = append(atoms, d.values...)
		}
	}
	if len(atoms) == 0 || len(atoms) > stepAtlasMaxAtoms {
		return nil
	}
	sort.Float64s(atoms)
	a := &stepAtlas{
		atoms: atoms[:0],
		ulo:   make([]float64, 0, len(atoms)),
		uhi:   make([]float64, 0, len(atoms)),
	}
	for i, v := range atoms {
		if i > 0 && v == atoms[i-1] {
			continue // dedup across components
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil
		}
		// The jump at v: CCDF(v-) - CCDF(v) is the mixture's mass at v.
		// Atoms whose mass rounds away (below one ulp of the CCDF) keep no
		// interval and stay on the bisection path.
		lo := m.CCDF(v)
		hi := m.CCDF(math.Nextafter(v, math.Inf(-1)))
		if hi <= lo {
			continue
		}
		a.atoms = append(a.atoms, v)
		a.ulo = append(a.ulo, lo)
		a.uhi = append(a.uhi, hi)
	}
	if len(a.atoms) == 0 {
		return nil
	}
	return a
}

// lookup returns the exact quantile for u when u lies inside some atom's
// step interval (ulo[i], uhi[i]].
func (a *stepAtlas) lookup(u float64) (float64, bool) {
	// ulo is non-increasing in atom order; find the first atom whose step
	// is strictly below u, then check u against its upper edge.
	i := sort.Search(len(a.atoms), func(i int) bool { return a.ulo[i] < u })
	if i == len(a.atoms) || u > a.uhi[i] {
		return 0, false
	}
	return a.atoms[i], true
}

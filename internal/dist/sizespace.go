package dist

import (
	"math"
	"sort"
)

// What the analytical models need to integrate over sizes instead of over
// quantiles of whatever the law happens to be.
//
// An integral of g(size) against a law is linear in the law: a Mixture's
// integral is the weighted sum of its components' integrals, and a law
// made of atoms contributes a finite sum. Decompose exposes exactly that
// structure, so internal/core never inverts a mixture CCDF inside an
// integral (the inverse has a kink wherever two components cross, and an
// adaptive rule pointed at it recurses to its depth limit) and never asks
// a quadrature to resolve a step function. Each continuous leaf is then
// integrated in its own quantile space, where it is smooth, along the ray
// Ray returns.

// Atom is one point mass of a size law.
type Atom struct {
	// Value is the atom's size, Mass its probability.
	Value, Mass float64
}

// Parts is a size law taken apart by Decompose: law = Σ atoms + Σ smooth
// leaves, every mass and weight already scaled by the mixture weights
// above it, so the atoms' masses and the leaves' weights sum to one.
type Parts struct {
	// Atoms are the point masses in ascending, distinct Value order.
	Atoms []Atom
	// Smooth are the leaves that are not step laws — every law other than
	// Mixture and Discrete, including implementations this package does
	// not know.
	Smooth []Component
}

// Decompose flattens d (through nested mixtures) into its atoms and its
// continuous leaves.
func Decompose(d SizeDist) Parts {
	var ps Parts
	ps.add(d, 1)
	byValue := func(i, j int) bool { return ps.Atoms[i].Value < ps.Atoms[j].Value }
	if !sort.SliceIsSorted(ps.Atoms, byValue) { // one step law's atoms already are
		sort.Slice(ps.Atoms, byValue)
	}
	merged := ps.Atoms[:0]
	for _, a := range ps.Atoms {
		if n := len(merged); n > 0 && merged[n-1].Value == a.Value {
			merged[n-1].Mass += a.Mass
			continue
		}
		merged = append(merged, a)
	}
	ps.Atoms = merged
	return ps
}

func (ps *Parts) add(d SizeDist, weight float64) {
	switch d := d.(type) {
	case *Mixture:
		for _, c := range d.comps {
			ps.add(c.Dist, weight*c.Weight)
		}
	case *Discrete:
		for i, v := range d.values {
			ps.Atoms = append(ps.Atoms, Atom{Value: v, Mass: weight * d.weights[i]})
		}
	default:
		ps.Smooth = append(ps.Smooth, Component{Weight: weight, Dist: d})
	}
}

// Ray returns y(s) = d.QuantileCCDF(u·e^s), the sizes met walking away
// from upper-tail probability u in log-probability steps — the path the
// models' inner integrals follow. Laws whose quantile is a closed form in
// log u answer with one transcendental per point instead of the Exp and
// the Pow (or Log) of the general route: a Pareto size is x(u)·e^(−s/β), a
// shifted exponential is linear in s, a Weibull takes one Pow of a known
// argument. Every other law goes through QuantileCCDF, which stays the
// reference the shortcuts are tested against. s may have either sign;
// probabilities past 1 return the smallest size.
func Ray(d SizeDist, u float64) func(s float64) float64 {
	switch d := d.(type) {
	case Pareto:
		x0, k := d.QuantileCCDF(u), -1/d.Shape
		return func(s float64) float64 {
			return math.Max(d.Scale, x0*math.Exp(k*s))
		}
	case Exponential:
		x0 := d.QuantileCCDF(u)
		return func(s float64) float64 {
			return math.Max(d.Min, x0-d.Scale*s)
		}
	case Weibull:
		l0, k := -math.Log(u), 1/d.K
		return func(s float64) float64 {
			return d.Min + d.Lambda*math.Pow(math.Max(0, l0-s), k)
		}
	}
	return func(s float64) float64 {
		return d.QuantileCCDF(math.Min(1, u*math.Exp(s)))
	}
}

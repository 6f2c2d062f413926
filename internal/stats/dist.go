package stats

import (
	"fmt"
	"math"
	"sort"
)

// Distributions used by the workload generators. All sampling is driven by
// an explicit *RNG so traces are reproducible.

// Exp samples an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exp requires positive mean")
	}
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// Normal samples a normally distributed value via the Box-Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Poisson samples a Poisson distributed count with the given mean using
// Knuth's method (adequate for the small means the generators use).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		panic("stats: Poisson requires positive mean")
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// WeightedChoice selects indices according to fixed relative weights.
// It precomputes the cumulative distribution once so sampling is O(log n).
type WeightedChoice struct {
	cum []float64
}

// NewWeightedChoice builds a sampler over len(weights) outcomes. Weights
// must be non-negative with a positive sum.
func NewWeightedChoice(weights []float64) (*WeightedChoice, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("stats: no weights")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("stats: invalid weight %v at index %d", w, i)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("stats: weights sum to zero")
	}
	return &WeightedChoice{cum: cum}, nil
}

// N reports the number of outcomes.
func (w *WeightedChoice) N() int { return len(w.cum) }

// Sample draws one outcome index using r.
func (w *WeightedChoice) Sample(r *RNG) int {
	total := w.cum[len(w.cum)-1]
	x := r.Float64() * total
	return sort.SearchFloat64s(w.cum, x)
}

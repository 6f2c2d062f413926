package stats

// Ridge is a small incremental ridge regressor: it learns a linear map
// from a fixed-dimension feature vector to one scalar target, one
// observation at a time, in O(d²) per update. The surrogate screening
// layer trains one Ridge per exploration objective from every exact
// simulation result the run produces and uses the predictions to rank
// candidate configurations before spending real simulations on them.
//
// The model maintains the inverse regularized Gram matrix
// A⁻¹ = (λI + Σ xxᵀ)⁻¹ directly via the Sherman–Morrison rank-1 update,
// so observing and predicting never solve a linear system. Besides the
// point prediction wᵀx it exposes the leverage xᵀA⁻¹x — the classic
// ridge predictive-variance score, large for feature directions the
// model has not seen — which the screening policy uses to pick
// uncertainty explorers.
//
// Everything is plain float64 arithmetic in a fixed order, so a Ridge
// fed the same observation sequence produces bit-identical predictions
// on every run — the property the deterministic search strategies
// require. A Ridge is not safe for concurrent use; the search layer
// only touches it from the coordinating goroutine.
type Ridge struct {
	d     int
	ainv  []float64 // d×d row-major inverse Gram matrix
	b     []float64 // Σ y·x
	w     []float64 // solved weights, rebuilt lazily from ainv·b
	tmp   []float64 // scratch: A⁻¹x during updates and leverage
	n     int64
	dirty bool
}

// NewRidge returns a regressor over d-dimensional features with ridge
// penalty lambda (> 0; the penalty keeps A invertible and the update
// stable even under constant or collinear feature columns).
func NewRidge(d int, lambda float64) *Ridge {
	if d <= 0 {
		panic("stats: ridge dimension must be positive")
	}
	if lambda <= 0 {
		panic("stats: ridge lambda must be positive")
	}
	r := &Ridge{
		d:    d,
		ainv: make([]float64, d*d),
		b:    make([]float64, d),
		w:    make([]float64, d),
		tmp:  make([]float64, d),
	}
	for i := 0; i < d; i++ {
		r.ainv[i*d+i] = 1 / lambda
	}
	return r
}

// N returns the number of observations absorbed so far.
func (r *Ridge) N() int64 { return r.n }

// Observe absorbs one (x, y) observation. x must have the dimension d
// the regressor was made with.
func (r *Ridge) Observe(x []float64, y float64) {
	if len(x) != r.d {
		panic("stats: ridge observation dimension mismatch")
	}
	d := r.d
	// tmp = A⁻¹x (A⁻¹ is symmetric, so row-major rows are columns too).
	for i := 0; i < d; i++ {
		s := 0.0
		row := r.ainv[i*d : i*d+d]
		for j, xj := range x {
			s += row[j] * xj
		}
		r.tmp[i] = s
	}
	denom := 1.0
	for i, xi := range x {
		denom += xi * r.tmp[i]
	}
	// Sherman–Morrison: A⁻¹ ← A⁻¹ − (A⁻¹x)(A⁻¹x)ᵀ / (1 + xᵀA⁻¹x).
	inv := 1 / denom
	for i := 0; i < d; i++ {
		ti := r.tmp[i] * inv
		if ti == 0 {
			continue
		}
		row := r.ainv[i*d : i*d+d]
		for j := 0; j < d; j++ {
			row[j] -= ti * r.tmp[j]
		}
	}
	for i, xi := range x {
		r.b[i] += y * xi
	}
	r.n++
	r.dirty = true
}

// refresh rebuilds the weight vector from the current A⁻¹ and b.
func (r *Ridge) refresh() {
	if !r.dirty {
		return
	}
	d := r.d
	for i := 0; i < d; i++ {
		s := 0.0
		row := r.ainv[i*d : i*d+d]
		for j, bj := range r.b {
			s += row[j] * bj
		}
		r.w[i] = s
	}
	r.dirty = false
}

// Predict returns the point prediction wᵀx and the leverage xᵀA⁻¹x for
// the feature vector. The leverage shrinks toward zero as observations
// accumulate along x's direction; before any training it is x²/λ.
func (r *Ridge) Predict(x []float64) (mean, leverage float64) {
	if len(x) != r.d {
		panic("stats: ridge prediction dimension mismatch")
	}
	r.refresh()
	d := r.d
	for i, wi := range r.w {
		mean += wi * x[i]
	}
	for i := 0; i < d; i++ {
		s := 0.0
		row := r.ainv[i*d : i*d+d]
		for j, xj := range x {
			s += row[j] * xj
		}
		leverage += x[i] * s
	}
	return mean, leverage
}

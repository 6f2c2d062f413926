// Package stats provides the deterministic statistics substrate used by the
// rest of dmexplore: a seedable pseudo-random number generator, probability
// distributions, histograms and summary statistics.
//
// Everything in this package is deterministic given a seed. The exploration
// tool relies on that property: profiling the same workload against two
// allocator configurations must present byte-identical allocation traces to
// both, otherwise the comparison (and the Pareto front built from it) is
// meaningless.
package stats

// RNG is a small, fast, deterministic pseudo-random number generator based
// on the PCG-XSH-RR 64/32 construction (O'Neill, 2014). It is not safe for
// concurrent use; give each goroutine its own RNG.
type RNG struct {
	state uint64
	inc   uint64
}

const pcgMultiplier = 6364136223846793005

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{inc: (seed << 1) | 1}
	r.state = 0
	r.Uint32()
	r.state += seed
	r.Uint32()
	return r
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint32(n)
	x := r.Uint32()
	m := uint64(x) * uint64(bound)
	lo := uint32(m)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint32()
			m = uint64(x) * uint64(bound)
			lo = uint32(m)
		}
	}
	return int(m >> 32)
}

// Int64n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int64n called with non-positive n")
	}
	max := uint64(n)
	if max == 1 {
		return 0
	}
	// Rejection sampling over the smallest all-ones mask covering max-1.
	mask := max - 1
	mask |= mask >> 1
	mask |= mask >> 2
	mask |= mask >> 4
	mask |= mask >> 8
	mask |= mask >> 16
	mask |= mask >> 32
	for {
		v := r.Uint64() & mask
		if v < max {
			return int64(v)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

package stats

import "math"

// Summary accumulates running summary statistics over float64 observations
// using Welford's online algorithm, so it is numerically stable even for
// the billions of access counts a full exploration produces.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Variance returns the unbiased sample variance (0 for n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Range returns max-min (0 when empty).
func (s *Summary) Range() float64 { return s.Max() - s.Min() }

// RangeFactor returns max/min, the "factor N" spread the paper reports for
// footprint and accesses across a configuration sweep. Returns +Inf when
// min is zero and 0 when the summary is empty.
func (s *Summary) RangeFactor() float64 {
	if s.n == 0 {
		return 0
	}
	if s.min == 0 {
		return math.Inf(1)
	}
	return s.max / s.min
}

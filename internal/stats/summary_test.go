package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.Variance() != 0 || s.Range() != 0 || s.RangeFactor() != 0 {
		t.Fatal("empty summary not all zero")
	}
}

func TestSummaryKnownValues(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("n %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean %v", s.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
	if s.RangeFactor() != 4.5 {
		t.Fatalf("range factor %v", s.RangeFactor())
	}
}

func TestSummaryRangeFactorZeroMin(t *testing.T) {
	var s Summary
	s.Add(0)
	s.Add(5)
	if !math.IsInf(s.RangeFactor(), 1) {
		t.Fatalf("range factor with zero min: %v", s.RangeFactor())
	}
}

func TestSummaryPropertyMinLEMeanLEMax(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		var s Summary
		clean := 0
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes sane so mean stays in range.
			v = math.Mod(v, 1e9)
			s.Add(v)
			clean++
		}
		if clean == 0 {
			return true
		}
		return s.Min() <= s.Mean()+1e-6 && s.Mean() <= s.Max()+1e-6
	}, nil); err != nil {
		t.Fatal(err)
	}
}

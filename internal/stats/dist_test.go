package stats

import (
	"math"
	"testing"
)

func TestExpMean(t *testing.T) {
	r := NewRNG(101)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Exp(40))
	}
	if math.Abs(s.Mean()-40) > 1 {
		t.Fatalf("Exp(40) mean %v", s.Mean())
	}
	if s.Min() < 0 {
		t.Fatalf("Exp produced negative value %v", s.Min())
	}
}

func TestExpPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(103)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(r.Normal(10, 3))
	}
	if math.Abs(s.Mean()-10) > 0.1 {
		t.Fatalf("Normal mean %v", s.Mean())
	}
	if math.Abs(s.StdDev()-3) > 0.1 {
		t.Fatalf("Normal stddev %v", s.StdDev())
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(113)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(float64(r.Poisson(4)))
	}
	if math.Abs(s.Mean()-4) > 0.1 {
		t.Fatalf("Poisson(4) mean %v", s.Mean())
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	w, err := NewWeightedChoice([]float64{1, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(127)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	wantFrac := []float64{0.1, 0.3, 0.6}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-wantFrac[i]) > 0.01 {
			t.Fatalf("outcome %d frac %v, want %v", i, frac, wantFrac[i])
		}
	}
}

func TestWeightedChoiceZeroWeightNeverChosen(t *testing.T) {
	w, err := NewWeightedChoice([]float64{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(131)
	for i := 0; i < 10000; i++ {
		if got := w.Sample(r); got != 1 {
			t.Fatalf("zero-weight outcome %d sampled", got)
		}
	}
}

func TestWeightedChoiceErrors(t *testing.T) {
	if _, err := NewWeightedChoice(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewWeightedChoice([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewWeightedChoice([]float64{-1, 2}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewWeightedChoice([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

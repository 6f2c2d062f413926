package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	if err := quick.Check(func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestInt64nBounds(t *testing.T) {
	r := NewRNG(9)
	bounds := []int64{1, 2, 3, 7, 100, 1 << 20, 1<<40 + 17}
	for _, b := range bounds {
		for i := 0; i < 200; i++ {
			v := r.Int64n(b)
			if v < 0 || v >= b {
				t.Fatalf("Int64n(%d) = %d out of range", b, v)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.Float64())
	}
	if m := s.Mean(); math.Abs(m-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", m)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(17)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}

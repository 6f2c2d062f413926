package pareto

import (
	"fmt"
	"testing"
	"testing/quick"

	"dmexplore/internal/stats"
)

func pt(tag string, vals ...float64) Point { return Point{Tag: tag, Values: vals} }

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{pt("a", 1, 1), pt("b", 2, 2), true},
		{pt("a", 1, 2), pt("b", 2, 1), false},
		{pt("a", 1, 1), pt("b", 1, 1), false}, // equal: no strict improvement
		{pt("a", 1, 1), pt("b", 1, 2), true},
		{pt("a", 2, 2), pt("b", 1, 1), false},
		{pt("a", 1), pt("b", 1, 2), false}, // mixed dims
		{pt("a"), pt("b"), false},          // empty
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("case %d: Dominates = %v", i, got)
		}
	}
}

func TestFront2D(t *testing.T) {
	points := []Point{
		pt("a", 1, 10),
		pt("b", 2, 8),
		pt("c", 3, 9), // dominated by b
		pt("d", 4, 4),
		pt("e", 5, 5), // dominated by d
		pt("f", 6, 1),
	}
	front := Front(points)
	want := []string{"a", "b", "d", "f"}
	if len(front) != len(want) {
		t.Fatalf("front %v", front)
	}
	for i, tag := range want {
		if front[i].Tag != tag {
			t.Fatalf("front[%d] = %s want %s", i, front[i].Tag, tag)
		}
	}
}

func TestFrontKeepsDuplicates(t *testing.T) {
	points := []Point{pt("a", 1, 1), pt("b", 1, 1), pt("c", 2, 2)}
	front := Front(points)
	if len(front) != 2 {
		t.Fatalf("front %v, want both duplicates", front)
	}
}

func TestFrontEdgeCases(t *testing.T) {
	if got := Front(nil); len(got) != 0 {
		t.Fatal("nil input")
	}
	one := []Point{pt("a", 5, 5)}
	if got := Front(one); len(got) != 1 || got[0].Tag != "a" {
		t.Fatal("single point")
	}
}

func TestFrontDoesNotMutateInput(t *testing.T) {
	points := []Point{pt("b", 2, 2), pt("a", 1, 3)}
	Front(points)
	if points[0].Tag != "b" {
		t.Fatal("input reordered")
	}
}

func TestFront3D(t *testing.T) {
	points := []Point{
		pt("a", 1, 5, 5),
		pt("b", 5, 1, 5),
		pt("c", 5, 5, 1),
		pt("d", 6, 6, 6), // dominated by all
		pt("e", 1, 5, 5), // duplicate of a
	}
	front := Front(points)
	if len(front) != 4 {
		t.Fatalf("3D front size %d: %v", len(front), front)
	}
	for _, p := range front {
		if p.Tag == "d" {
			t.Fatal("dominated point on front")
		}
	}
}

func TestFrontMixedDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mixed dims did not panic")
		}
	}()
	Front([]Point{pt("a", 1, 2), pt("b", 1)})
}

// Property: no front point dominates another; every non-front point is
// dominated by some front point.
func TestFrontProperties(t *testing.T) {
	rng := stats.NewRNG(5)
	if err := quick.Check(func(n uint8, dim3 bool) bool {
		count := int(n%40) + 1
		dim := 2
		if dim3 {
			dim = 3
		}
		points := make([]Point, count)
		for i := range points {
			vals := make([]float64, dim)
			for d := range vals {
				vals[d] = float64(rng.Intn(20))
			}
			points[i] = Point{Tag: string(rune('A' + i%26)), Values: vals}
		}
		front := Front(points)
		if len(front) == 0 {
			return false
		}
		inFront := make(map[*Point]bool)
		for i := range front {
			for j := range front {
				if i != j && Dominates(front[i], front[j]) {
					return false
				}
			}
			inFront[&front[i]] = true
		}
		for _, p := range points {
			dominated := false
			onFront := false
			for _, f := range front {
				if sameValues(f, p) {
					onFront = true
					break
				}
				if Dominates(f, p) {
					dominated = true
				}
			}
			if !onFront && !dominated {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Cross-check the 2-D sweep against the general N-D filter.
func TestFront2DMatchesND(t *testing.T) {
	rng := stats.NewRNG(77)
	for iter := 0; iter < 100; iter++ {
		n := rng.Intn(50) + 1
		points := make([]Point, n)
		for i := range points {
			points[i] = pt(string(rune('a'+i%26))+string(rune('0'+i/26)),
				float64(rng.Intn(15)), float64(rng.Intn(15)))
		}
		sweep := Front(points)
		// Use the same ordering then the quadratic filter.
		sorted := sortedCopy(points)
		order := make([]int, len(sorted))
		for i := range order {
			order[i] = i
		}
		var general []Point
		for _, i := range frontND(sorted, order) {
			general = append(general, sorted[i])
		}
		if len(sweep) != len(general) {
			t.Fatalf("iter %d: sweep %d vs general %d", iter, len(sweep), len(general))
		}
		for i := range sweep {
			if !sameValues(sweep[i], general[i]) || sweep[i].Tag != general[i].Tag {
				t.Fatalf("iter %d: point %d differs", iter, i)
			}
		}
	}
}

// pointLess is Front's order: objectives lexicographically, then Tag.
func pointLess(a, b Point) bool {
	if c := compareValues(a, b); c != 0 {
		return c < 0
	}
	return a.Tag < b.Tag
}

func sortedCopy(points []Point) []Point {
	out := make([]Point, len(points))
	copy(out, points)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && pointLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestNormalize(t *testing.T) {
	points := []Point{pt("a", 0, 100), pt("b", 10, 200), pt("c", 5, 150)}
	norm := Normalize(points)
	if norm[0].Values[0] != 0 || norm[1].Values[0] != 1 || norm[2].Values[0] != 0.5 {
		t.Fatalf("normalized x: %v", norm)
	}
	if norm[0].Values[1] != 0 || norm[1].Values[1] != 1 {
		t.Fatalf("normalized y: %v", norm)
	}
	// Constant objective maps to zero.
	flat := Normalize([]Point{pt("a", 7, 1), pt("b", 7, 2)})
	if flat[0].Values[0] != 0 || flat[1].Values[0] != 0 {
		t.Fatal("constant objective not zeroed")
	}
	// Input unchanged.
	if points[0].Values[1] != 100 {
		t.Fatal("input mutated")
	}
	if Normalize(nil) != nil {
		t.Fatal("nil input")
	}
}

func TestHypervolume2D(t *testing.T) {
	// Single point at (1,1) with ref (3,3): area 2x2 = 4.
	hv := Hypervolume2D([]Point{pt("a", 1, 1)}, [2]float64{3, 3})
	if hv != 4 {
		t.Fatalf("hv %v want 4", hv)
	}
	// Staircase: (1,2) and (2,1), ref (3,3): 2*1 + 1*... = (3-1)*(3-2) + (3-2)*(2-1) = 2+1 = 3.
	hv = Hypervolume2D([]Point{pt("a", 1, 2), pt("b", 2, 1)}, [2]float64{3, 3})
	if hv != 3 {
		t.Fatalf("hv %v want 3", hv)
	}
	// Dominated points do not add volume.
	hv2 := Hypervolume2D([]Point{pt("a", 1, 2), pt("b", 2, 1), pt("c", 2, 2)}, [2]float64{3, 3})
	if hv2 != hv {
		t.Fatalf("dominated point changed hv: %v vs %v", hv2, hv)
	}
	// Point outside ref contributes nothing.
	if got := Hypervolume2D([]Point{pt("a", 5, 5)}, [2]float64{3, 3}); got != 0 {
		t.Fatalf("outside point hv %v", got)
	}
	if Hypervolume2D(nil, [2]float64{1, 1}) != 0 {
		t.Fatal("empty hv")
	}
}

func TestHypervolumeMoreIsBetter(t *testing.T) {
	// A front closer to the origin must enclose more volume.
	far := []Point{pt("a", 2, 8), pt("b", 8, 2)}
	near := []Point{pt("a", 1, 4), pt("b", 4, 1)}
	ref := [2]float64{10, 10}
	if Hypervolume2D(near, ref) <= Hypervolume2D(far, ref) {
		t.Fatal("nearer front has less hypervolume")
	}
}

func TestKnee(t *testing.T) {
	front := []Point{pt("a", 0, 10), pt("b", 3, 3), pt("c", 10, 0)}
	if got := Knee(front); front[got].Tag != "b" {
		t.Fatalf("knee %s", front[got].Tag)
	}
	if Knee(nil) != -1 {
		t.Fatal("empty knee")
	}
	single := []Point{pt("only", 5, 5)}
	if Knee(single) != 0 {
		t.Fatal("single-point knee")
	}
}

func TestKneeExtremesNotPicked(t *testing.T) {
	// With a balanced middle point, neither axis extreme should win.
	front := []Point{pt("x", 0, 100), pt("m", 20, 20), pt("y", 100, 0)}
	k := Knee(front)
	if front[k].Tag != "m" {
		t.Fatalf("knee picked extreme %s", front[k].Tag)
	}
}

// naiveFront is the reference all-pairs filter frontND is checked against.
func naiveFront(points []Point) []Point {
	sorted := sortedCopy(points)
	var out []Point
	for i, p := range sorted {
		dominated := false
		for j, q := range sorted {
			if i != j && Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// TestFrontNDMatchesNaive cross-checks the front-members-only scan in
// frontND against the naive all-pairs filter on random 3-D and 4-D sets.
func TestFrontNDMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(31)
	for iter := 0; iter < 100; iter++ {
		dim := 3 + iter%2
		n := rng.Intn(60) + 1
		points := make([]Point, n)
		for i := range points {
			vals := make([]float64, dim)
			for d := range vals {
				vals[d] = float64(rng.Intn(12))
			}
			points[i] = Point{Tag: fmt.Sprintf("p%d", i), Values: vals}
		}
		got := Front(points)
		want := naiveFront(points)
		if len(got) != len(want) {
			t.Fatalf("iter %d: frontND %d vs naive %d", iter, len(got), len(want))
		}
		for i := range got {
			if !sameValues(got[i], want[i]) || got[i].Tag != want[i].Tag {
				t.Fatalf("iter %d: point %d differs: %+v vs %+v", iter, i, got[i], want[i])
			}
		}
	}
}

// dominatedHeavy builds n 3-D points of which exactly f form the front
// (an antichain on the first two coordinates) and the remaining n-f are
// dominated by every front member.
func dominatedHeavy(n, f int) []Point {
	pts := make([]Point, 0, n)
	for j := 0; j < f; j++ {
		pts = append(pts, Point{Tag: fmt.Sprintf("f%d", j),
			Values: []float64{float64(j), float64(f - j), 0}})
	}
	for k := 0; f+k < n; k++ {
		pts = append(pts, Point{Tag: fmt.Sprintf("d%d", k),
			Values: []float64{float64(f + k), float64(f + k), 1}})
	}
	return pts
}

// TestFrontNDComparisonBound is the quadratic-blowup guard: on a
// dominated-heavy input the filter must stay within its documented
// O(n + f²) dominance tests — each dominated point is killed by the
// first front member it meets, each front member scans at most the front
// built so far. The previous all-pairs implementation scanned every
// point per front member (~f·n tests) and would exceed this bound by two
// orders of magnitude.
func TestFrontNDComparisonBound(t *testing.T) {
	const n, f = 50000, 100
	pts := dominatedHeavy(n, f)
	frontNDComparisons.Store(0)
	front := Front(pts)
	if len(front) != f {
		t.Fatalf("front size %d, want %d", len(front), f)
	}
	comparisons := frontNDComparisons.Load()
	bound := int64(n + f*f)
	if comparisons > bound {
		t.Fatalf("frontND made %d dominance tests on n=%d f=%d, bound %d",
			comparisons, n, f, bound)
	}
}

func TestMergeFronts(t *testing.T) {
	a := []Point{pt("1", 1, 10), pt("2", 5, 5)}
	b := []Point{pt("3", 10, 1), pt("4", 6, 6)} // 4 dominated by 2
	c := []Point{pt("2", 5, 5), pt("5", 2, 9)}  // 2 duplicates island a's export

	merged := MergeFronts(a, b, c)
	want := map[string]bool{"1": true, "2": true, "3": true, "5": true}
	if len(merged) != len(want) {
		t.Fatalf("merged front has %d members: %v", len(merged), merged)
	}
	seen := map[string]int{}
	for _, p := range merged {
		if !want[p.Tag] {
			t.Fatalf("dominated or unknown tag %q survived the merge", p.Tag)
		}
		seen[p.Tag]++
		if seen[p.Tag] > 1 {
			t.Fatalf("tag %q duplicated in merged front", p.Tag)
		}
	}

	// Deterministic regardless of reporting order.
	again := MergeFronts(c, b, a)
	if len(again) != len(merged) {
		t.Fatalf("merge is order-sensitive: %d vs %d members", len(again), len(merged))
	}
	got := map[string]bool{}
	for _, p := range again {
		got[p.Tag] = true
	}
	for tag := range want {
		if !got[tag] {
			t.Fatalf("tag %q lost when islands report in a different order", tag)
		}
	}

	if out := MergeFronts(); out != nil && len(out) != 0 {
		t.Fatalf("empty merge returned %v", out)
	}
}

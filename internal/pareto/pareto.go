// Package pareto implements the multi-objective machinery of the
// exploration tool: dominance tests, Pareto-front extraction over any
// number of minimization objectives, and front quality indicators
// (2-D hypervolume, knee point). The tool's final step — reducing a full
// configuration sweep to the Pareto-optimal set for the designer — lives
// here.
package pareto

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Point is one candidate in objective space. All objectives are
// minimized. Tag carries the candidate's identity (configuration index or
// ID) through the reduction.
type Point struct {
	Tag    string
	Values []float64
}

// Dominates reports whether a dominates b: a is no worse in every
// objective and strictly better in at least one. Points of differing
// dimensionality never dominate each other.
func Dominates(a, b Point) bool {
	if len(a.Values) != len(b.Values) || len(a.Values) == 0 {
		return false
	}
	strict := false
	for i := range a.Values {
		if a.Values[i] > b.Values[i] {
			return false
		}
		if a.Values[i] < b.Values[i] {
			strict = true
		}
	}
	return strict
}

// Front extracts the Pareto-optimal subset of points. For two objectives
// it uses an O(n log n) sweep; otherwise the general O(n²) filter.
// Duplicate objective vectors are all kept (they are mutually
// non-dominating); order within the front follows ascending first
// objective, ties broken by the remaining objectives then Tag, so output
// is deterministic.
func Front(points []Point) []Point {
	idx := FrontIndices(points, func(i, j int) bool { return points[i].Tag < points[j].Tag })
	out := make([]Point, len(idx))
	for k, i := range idx {
		out[k] = points[i]
	}
	return out
}

// FrontIndices is Front over positions: it returns the positions in
// points of the Pareto-optimal ones, in Front's order, with ties between
// equal objective vectors broken by tie(i, j) (true when points[i] goes
// first) instead of by Tag. Callers that identify points by position
// need no Tags.
func FrontIndices(points []Point, tie func(i, j int) bool) []int {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	if len(points) <= 1 {
		return order
	}
	dim := len(points[0].Values)
	for _, p := range points {
		if len(p.Values) != dim {
			panic(fmt.Sprintf("pareto: mixed dimensionality: %d vs %d", len(p.Values), dim))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if c := compareValues(points[i], points[j]); c != 0 {
			return c < 0
		}
		return tie(i, j)
	})
	if dim == 2 {
		return front2D(points, order)
	}
	return frontND(points, order)
}

// compareValues orders two points lexicographically by objectives.
func compareValues(a, b Point) int {
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			if a.Values[i] < b.Values[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// front2D sweeps the points in order, sorted by (x, y): a point is on the
// front iff its y strictly improves on the best y seen so far (equal
// vectors kept). It returns the front's positions in order's backing
// array.
func front2D(points []Point, order []int) []int {
	out := order[:0]
	bestY := math.Inf(1)
	for _, i := range order {
		y := points[i].Values[1]
		switch {
		case y < bestY:
			out = append(out, i)
			bestY = y
		case y == bestY && len(out) > 0 && sameValues(points[out[len(out)-1]], points[i]):
			// Exact duplicate of the last front point: keep it.
			out = append(out, i)
		}
	}
	return out
}

func sameValues(a, b Point) bool {
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

// frontNDComparisons counts the dominance tests frontND performs, for the
// complexity-bound guard test (TestFrontNDComparisonBound). Atomic so a
// caller running Front concurrently never races the instrumentation.
var frontNDComparisons atomic.Int64

// frontND is the general (>= 3 objectives) filter over the points in
// order, sorted lexicographically. It exploits the sort: any dominator
// of p is componentwise <= p, hence lexicographically before p, and
// because dominance is transitive every dominated point is dominated by
// some *front* member that precedes it. So each point is tested only
// against the front accumulated so far — O(n·f) dominance tests for n
// points and a final front of size f, instead of the naive all-pairs
// O(n²) over the sorted tail. The worst case (every point
// non-dominated, f = n) remains quadratic, which is inherent to pairwise
// filtering; BenchmarkFrontND tracks it and TestFrontNDComparisonBound
// pins the O(n·f) behaviour on dominated-heavy inputs. It returns the
// front's positions in order's backing array.
func frontND(points []Point, order []int) []int {
	out := order[:0]
	comparisons := int64(0)
	for _, i := range order {
		dominated := false
		for _, q := range out {
			comparisons++
			if Dominates(points[q], points[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	frontNDComparisons.Add(comparisons)
	return out
}

// Normalize rescales each objective of the points to [0, 1] over the
// point set (degenerate objectives — constant across points — map to 0).
// It returns fresh points; inputs are not modified.
func Normalize(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	dim := len(points[0].Values)
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for d := 0; d < dim; d++ {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	for _, p := range points {
		for d, v := range p.Values {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	out := make([]Point, len(points))
	for i, p := range points {
		vals := make([]float64, dim)
		for d, v := range p.Values {
			if hi[d] > lo[d] {
				vals[d] = (v - lo[d]) / (hi[d] - lo[d])
			}
		}
		out[i] = Point{Tag: p.Tag, Values: vals}
	}
	return out
}

// Hypervolume2D returns the area dominated by the front between the
// origin-ward envelope and the reference point (both objectives
// minimized; ref must be dominated by every front point for a meaningful
// result). Non-front points are filtered first.
func Hypervolume2D(points []Point, ref [2]float64) float64 {
	front := Front(points)
	if len(front) == 0 {
		return 0
	}
	// front is sorted by ascending x, descending y.
	hv := 0.0
	prevY := ref[1]
	for _, p := range front {
		x, y := p.Values[0], p.Values[1]
		if x >= ref[0] || y >= prevY {
			continue
		}
		hv += (ref[0] - x) * (prevY - y)
		prevY = y
	}
	return hv
}

// Knee returns the front point closest (Euclidean, after normalization)
// to the ideal corner — the conventional "balanced" pick offered to the
// designer. It returns the index into the supplied front slice, or -1
// for an empty front.
func Knee(front []Point) int {
	if len(front) == 0 {
		return -1
	}
	norm := Normalize(front)
	best, bestDist := -1, math.Inf(1)
	for i, p := range norm {
		var d float64
		for _, v := range p.Values {
			d += v * v
		}
		if d < bestDist {
			bestDist = d
			best = i
		}
	}
	return best
}

// MergeFronts reduces per-island (or per-shard) fronts to the global
// Pareto front of their union — the coordinator's migration merge. Tags
// deduplicate across inputs (islands commonly rediscover the same
// configuration; the first occurrence wins), then one Front pass over
// the union extracts the survivors. Output order is Front's
// deterministic order, so the merge is a pure function of the input
// fronts regardless of which island reported first.
func MergeFronts(fronts ...[]Point) []Point {
	var union []Point
	seen := make(map[string]bool)
	for _, f := range fronts {
		for _, p := range f {
			if seen[p.Tag] {
				continue
			}
			seen[p.Tag] = true
			union = append(union, p)
		}
	}
	return Front(union)
}

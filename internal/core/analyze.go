package core

import (
	"fmt"
	"sort"
	"strconv"

	"dmexplore/internal/pareto"
	"dmexplore/internal/stats"
)

// ObjectiveRange summarizes the spread of one metric across a sweep —
// the "range of a factor N" figures of the paper's §3.
type ObjectiveRange struct {
	Objective string
	Min, Max  float64
	// Factor is Max/Min (the paper's headline spread).
	Factor float64
	// BestIndex/WorstIndex are the configuration indices attaining
	// Min/Max.
	BestIndex, WorstIndex int
}

// Feasible filters results to configurations that served every request
// (infeasible configurations are excluded from the paper's statistics:
// an embedded design that fails allocations is not a candidate).
func Feasible(results []Result) []Result {
	out := make([]Result, 0, len(results))
	for _, r := range results {
		if r.Err == nil && r.Metrics != nil && r.Metrics.Feasible() {
			out = append(out, r)
		}
	}
	return out
}

// Range computes the spread of the named objective over the results.
func Range(results []Result, objective string) (ObjectiveRange, error) {
	or := ObjectiveRange{Objective: objective, BestIndex: -1, WorstIndex: -1}
	var s stats.Summary
	for _, r := range results {
		if r.Metrics == nil {
			continue
		}
		v, err := r.Metrics.Objective(objective)
		if err != nil {
			return or, err
		}
		if or.BestIndex == -1 || v < or.Min {
			or.Min = v
			or.BestIndex = r.Index
		}
		if or.WorstIndex == -1 || v > or.Max {
			or.Max = v
			or.WorstIndex = r.Index
		}
		s.Add(v)
	}
	if or.BestIndex == -1 {
		return or, fmt.Errorf("core: no results to range over")
	}
	or.Factor = s.RangeFactor()
	return or, nil
}

// ParetoSet reduces results to the Pareto-optimal subset under the named
// objectives (all minimized). The returned results are sorted by the
// first objective ascending; the parallel points slice carries the
// objective vectors (Tag = configuration index).
func ParetoSet(results []Result, objectives []string) ([]Result, []pareto.Point, error) {
	dim := len(objectives)
	if dim < 2 {
		return nil, nil, fmt.Errorf("core: need at least two objectives, got %d", dim)
	}
	// pos[k] is the result behind points[k]; the objective vectors share
	// one backing slice.
	pos := make([]int, 0, len(results))
	vals := make([]float64, 0, len(results)*dim)
	for i, r := range results {
		if r.Metrics == nil {
			continue
		}
		for _, obj := range objectives {
			v, err := r.Metrics.Objective(obj)
			if err != nil {
				return nil, nil, err
			}
			vals = append(vals, v)
		}
		pos = append(pos, i)
	}
	points := make([]pareto.Point, len(pos))
	for k := range points {
		points[k].Values = vals[k*dim : (k+1)*dim : (k+1)*dim]
	}
	index := func(k int) int { return results[pos[k]].Index }
	// Equal vectors keep Front's Tag order: the indices' decimal forms.
	front := pareto.FrontIndices(points, func(i, j int) bool { return decimalLess(index(i), index(j)) })
	frontPoints := make([]pareto.Point, len(front))
	for n, k := range front {
		frontPoints[n] = pareto.Point{Tag: strconv.Itoa(index(k)), Values: points[k].Values}
	}
	// One result per configuration index, the last with that index: the
	// indices of equal vectors sort adjacent, the later position first.
	sort.Slice(front, func(a, b int) bool {
		i, j := front[a], front[b]
		if vi, vj := vals[i*dim], vals[j*dim]; vi != vj {
			return vi < vj
		}
		if index(i) != index(j) {
			return index(i) < index(j)
		}
		return i > j
	})
	out := make([]Result, 0, len(front))
	for n, k := range front {
		if n > 0 && index(k) == index(front[n-1]) {
			continue
		}
		out = append(out, results[pos[k]])
	}
	return out, frontPoints, nil
}

// decimalLess orders two integers by their decimal strings, as Tags
// compare.
func decimalLess(a, b int) bool {
	var x, y [20]byte
	return string(strconv.AppendInt(x[:0], int64(a), 10)) < string(strconv.AppendInt(y[:0], int64(b), 10))
}

// ParetoImprovement reports, within a Pareto set, the best-to-worst
// factor of one objective — the paper's "decrease up to a factor of N
// within the Pareto-optimal configurations". The endpoints of a trade-off
// curve are both Pareto-optimal, so this measures how much of the metric
// a designer can trade away by sliding along the front.
func ParetoImprovement(front []Result, objective string) (float64, error) {
	r, err := Range(front, objective)
	if err != nil {
		return 0, err
	}
	return r.Factor, nil
}

// ReductionPercent converts a best/worst factor into the paper's
// "% decrease" phrasing: factor 4.1 -> 75.6%.
func ReductionPercent(factor float64) float64 {
	if factor <= 0 {
		return 0
	}
	return (1 - 1/factor) * 100
}

package core

import (
	"fmt"
	"sort"

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
	if len(objectives) < 2 {
		return nil, nil, fmt.Errorf("core: need at least two objectives, got %d", len(objectives))
	}
	byTag := make(map[string]Result, len(results))
	points := make([]pareto.Point, 0, len(results))
	for _, r := range results {
		if r.Metrics == nil {
			continue
		}
		vals := make([]float64, len(objectives))
		for d, obj := range objectives {
			v, err := r.Metrics.Objective(obj)
			if err != nil {
				return nil, nil, err
			}
			vals[d] = v
		}
		tag := fmt.Sprintf("%d", r.Index)
		byTag[tag] = r
		points = append(points, pareto.Point{Tag: tag, Values: vals})
	}
	front := pareto.Front(points)
	out := make([]Result, 0, len(front))
	seen := make(map[string]bool, len(front))
	for _, p := range front {
		if seen[p.Tag] {
			continue // duplicate objective vectors map to one result each
		}
		seen[p.Tag] = true
		out = append(out, byTag[p.Tag])
	}
	sort.Slice(out, func(i, j int) bool {
		vi, _ := out[i].Metrics.Objective(objectives[0])
		vj, _ := out[j].Metrics.Objective(objectives[0])
		if vi != vj {
			return vi < vj
		}
		return out[i].Index < out[j].Index
	})
	return out, front, nil
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

package telemetry

import "sort"

// Origin is the provenance of one evaluated configuration: which
// strategy submitted it, in which evaluation wave, through which search
// operator, and derived from which parent configuration(s). It rides the journal record of the
// configuration's first exact evaluation, so `dmreport -lineage` can
// reconstruct the ancestry of every Pareto-front member after the run.
type Origin struct {
	// Strategy is the search that submitted the configuration ("sweep",
	// "nsga2", "screen-refine").
	Strategy string `json:"strategy"`

	// Wave is the 1-based fresh-evaluation wave the configuration was
	// profiled in — the generation counter of the batched pipeline.
	Wave int `json:"wave"`

	// Op is the search operator that produced the configuration:
	// "probe" (untagged evaluation), "seed" (initial population),
	// "screen" (screening sample), "refine" (front-neighbourhood ring),
	// "crossover" (NSGA-II breeding), "migrant" (island immigrant),
	// "sweep" (exhaustive enumeration).
	Op string `json:"op"`

	// Parents are the configuration indices the operator derived this
	// one from (one for a refinement neighbour, two for crossover, none
	// for random draws).
	Parents []int `json:"parents,omitempty"`
}

// LineageIndex reduces journal records to one record per configuration
// index, preferring the record that carries an Origin (the first exact
// evaluation) over memo- or cache-hit re-journalings of the same index.
func LineageIndex(recs []Record) map[int]Record {
	byIdx := make(map[int]Record, len(recs))
	for _, r := range recs {
		prev, seen := byIdx[r.Index]
		if !seen || (prev.Origin == nil && r.Origin != nil) {
			byIdx[r.Index] = r
		}
	}
	return byIdx
}

// OpCount is one operator's attribution row: how many of the inspected
// configurations that operator produced.
type OpCount struct {
	Op    string
	Count int
}

// CountOps aggregates the operators that produced the given indices,
// sorted by descending count then name. Indices without an origin are
// attributed to "(unknown)".
func CountOps(byIdx map[int]Record, indices []int) []OpCount {
	counts := make(map[string]int)
	for _, idx := range indices {
		op := "(unknown)"
		if rec, ok := byIdx[idx]; ok && rec.Origin != nil {
			op = rec.Origin.Op
		}
		counts[op]++
	}
	out := make([]OpCount, 0, len(counts))
	for op, n := range counts {
		out = append(out, OpCount{Op: op, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// Ancestors returns the full ancestor closure of idx (idx excluded),
// walking Origin.Parents through byIdx. Safe on cyclic or truncated
// journals: every index is visited at most once.
func Ancestors(byIdx map[int]Record, idx int) []int {
	seen := map[int]bool{idx: true}
	var out []int
	stack := []int{idx}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rec, ok := byIdx[cur]
		if !ok || rec.Origin == nil {
			continue
		}
		for _, p := range rec.Origin.Parents {
			if seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, p)
			stack = append(stack, p)
		}
	}
	sort.Ints(out)
	return out
}

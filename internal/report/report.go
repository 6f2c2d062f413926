// Package report renders exploration results in the formats the paper's
// tool emits: CSV/TSV tables "easy to import to Excel", Gnuplot data and
// script files for the Pareto curves, and markdown summaries for
// documentation. It also parses its own CSV back, so downstream tooling
// can post-process sweeps without re-running them.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dmexplore/internal/core"
	"dmexplore/internal/profile"
)

// resultHeader is the fixed metric column block of the results CSV.
var resultHeader = []string{
	"index", "label", "feasible",
	"accesses", "footprint_bytes", "energy_nj", "cycles",
	"mallocs", "frees", "failures", "peak_requested_bytes",
}

// WriteResultsCSV emits one row per result: the axis labels followed by
// the metric block.
func WriteResultsCSV(w io.Writer, axisNames []string, results []core.Result) error {
	cw := csv.NewWriter(w)
	header := append(append([]string{}, axisNames...), resultHeader...)
	if err := cw.Write(header); err != nil {
		return err
	}
	var row []string // reused: the writer is done with a row once Write returns
	for _, r := range results {
		if r.Metrics == nil {
			continue
		}
		m := r.Metrics
		row = append(append(row[:0], r.Labels...),
			strconv.Itoa(r.Index),
			m.ConfigLabel,
			strconv.FormatBool(m.Feasible()),
			strconv.FormatUint(m.Accesses, 10),
			strconv.FormatInt(m.FootprintBytes, 10),
			strconv.FormatFloat(m.EnergyNJ, 'f', 3, 64),
			strconv.FormatUint(m.Cycles, 10),
			strconv.FormatUint(m.Mallocs, 10),
			strconv.FormatUint(m.Frees, 10),
			strconv.FormatUint(m.Failures, 10),
			strconv.FormatInt(m.PeakRequestedBytes, 10),
		)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadResultsCSV parses a file produced by WriteResultsCSV back into
// partially-populated results: the labels and the metrics the CSV holds.
func ReadResultsCSV(r io.Reader, numAxes int) ([]core.Result, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("report: empty CSV")
	}
	if len(rows[0]) != numAxes+len(resultHeader) {
		return nil, fmt.Errorf("report: header has %d columns, want %d",
			len(rows[0]), numAxes+len(resultHeader))
	}
	var out []core.Result
	for i, row := range rows[1:] {
		parse := func(idx int) string { return row[numAxes+idx] }
		index, err := strconv.Atoi(parse(0))
		if err != nil {
			return nil, fmt.Errorf("report: row %d: bad index: %v", i, err)
		}
		accesses, err1 := strconv.ParseUint(parse(3), 10, 64)
		footprint, err2 := strconv.ParseInt(parse(4), 10, 64)
		energy, err3 := strconv.ParseFloat(parse(5), 64)
		cycles, err4 := strconv.ParseUint(parse(6), 10, 64)
		mallocs, err5 := strconv.ParseUint(parse(7), 10, 64)
		frees, err6 := strconv.ParseUint(parse(8), 10, 64)
		failures, err7 := strconv.ParseUint(parse(9), 10, 64)
		peakReq, err8 := strconv.ParseInt(parse(10), 10, 64)
		for _, e := range []error{err1, err2, err3, err4, err5, err6, err7, err8} {
			if e != nil {
				return nil, fmt.Errorf("report: row %d: %v", i, e)
			}
		}
		out = append(out, core.Result{
			Index:  index,
			Labels: append([]string{}, row[:numAxes]...),
			Metrics: &profile.Metrics{
				ConfigLabel:        parse(1),
				Accesses:           accesses,
				FootprintBytes:     footprint,
				EnergyNJ:           energy,
				Cycles:             cycles,
				Mallocs:            mallocs,
				Frees:              frees,
				Failures:           failures,
				PeakRequestedBytes: peakReq,
			},
		})
	}
	return out, nil
}

// WriteParetoDat emits a Gnuplot-ready data file of the sweep: column 1-2
// are the two objectives for all points, and a second indexed block
// repeats the Pareto-optimal subset (Gnuplot `index 1`).
func WriteParetoDat(w io.Writer, all, front []core.Result, objX, objY string) error {
	put := func(rs []core.Result, comment string) error {
		if _, err := fmt.Fprintf(w, "# %s: %s vs %s\n", comment, objX, objY); err != nil {
			return err
		}
		for _, r := range rs {
			if r.Metrics == nil {
				continue
			}
			x, err := r.Metrics.Objective(objX)
			if err != nil {
				return err
			}
			y, err := r.Metrics.Objective(objY)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%.6g %.6g %d\n", x, y, r.Index); err != nil {
				return err
			}
		}
		return nil
	}
	if err := put(all, "all configurations"); err != nil {
		return err
	}
	if _, err := fmt.Fprint(w, "\n\n"); err != nil {
		return err
	}
	return put(front, "pareto front")
}

// WriteGnuplotScript emits a .plt that renders the .dat written by
// WriteParetoDat as the paper's Figure 1 (lower part): the cloud of
// configurations with the Pareto curve highlighted.
func WriteGnuplotScript(w io.Writer, datPath, title, objX, objY string) error {
	_, err := fmt.Fprintf(w, `set title %q
set xlabel %q
set ylabel %q
set key top right
set grid
plot %q index 0 using 1:2 with points pt 7 ps 0.5 lc rgb "#bbbbbb" title "all configurations", \
     %q index 1 using 1:2 with linespoints pt 5 ps 1 lc rgb "#cc0000" title "Pareto-optimal"
`, title, objX, objY, datPath, datPath)
	return err
}

// MarkdownSummary renders the per-experiment summary table used in
// EXPERIMENTS.md: objective ranges across the sweep and the Pareto-set
// improvements.
func MarkdownSummary(name string, feasible, front []core.Result, objectives []string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", name)
	fmt.Fprintf(&b, "- configurations: %d feasible, %d Pareto-optimal\n\n", len(feasible), len(front))
	fmt.Fprintf(&b, "| objective | sweep min | sweep max | sweep factor | pareto factor | pareto reduction |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|\n")
	for _, obj := range objectives {
		sweep, err := core.Range(feasible, obj)
		if err != nil {
			return "", err
		}
		par, err := core.Range(front, obj)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "| %s | %.4g | %.4g | %.2fx | %.2fx | %.1f%% |\n",
			obj, sweep.Min, sweep.Max, sweep.Factor, par.Factor,
			core.ReductionPercent(par.Factor))
	}
	return b.String(), nil
}

// LabelHistogram tallies how often each option label appears among the
// results (e.g. to see which pool choices populate a Pareto front).
func LabelHistogram(results []core.Result, axis int) []string {
	counts := make(map[string]int)
	for _, r := range results {
		if axis < len(r.Labels) {
			counts[r.Labels[axis]]++
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s:%d", k, counts[k])
	}
	return out
}

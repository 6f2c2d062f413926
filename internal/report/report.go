// Package report renders exploration results in the formats the paper's
// tool emits: CSV/TSV tables "easy to import to Excel", Gnuplot data and
// script files for the Pareto curves, markdown summaries for
// documentation, and the end-of-run summary dmexplore and dmreport
// print. It also parses its own CSV back, so downstream tooling can
// post-process sweeps without re-running them.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"dmexplore/internal/core"
	"dmexplore/internal/pareto"
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

// WriteSummary prints the end-of-run digest of an exploration: each
// objective's range over the feasible results, the Pareto set's size,
// each objective's trade-off within the front, how much energy and
// cycles vary across the front when they are not objectives (the paper's
// §3 reports both), the knee and the front itself. points are front's
// objective vectors, as core.ParetoSet returns them.
func WriteSummary(w io.Writer, feasible, front []core.Result, points []pareto.Point, objectives []string) error {
	for _, obj := range objectives {
		r, err := core.Range(feasible, obj)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s range %.4g .. %.4g  (factor %.1f)\n", obj, r.Min, r.Max, r.Factor)
	}
	fmt.Fprintf(w, "\nPareto-optimal configurations: %d\n", len(front))
	for _, obj := range objectives {
		f, err := core.ParetoImprovement(front, obj)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s trade-off factor %.2f (up to %.1f%% reduction within the front)\n",
			obj, f, core.ReductionPercent(f))
	}
	for _, extra := range []string{profile.ObjEnergy, profile.ObjCycles} {
		if slices.Contains(objectives, extra) {
			continue
		}
		f, err := core.ParetoImprovement(front, extra)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s varies by factor %.2f across the front (up to %.2f%% reduction)\n",
			extra, f, core.ReductionPercent(f))
	}
	if k := pareto.Knee(points); k >= 0 {
		fmt.Fprintf(w, "  knee: config %d %v\n", front[k].Index, front[k].Labels)
	}
	fmt.Fprintln(w, "\nfront (index, labels, objectives):")
	for _, r := range front {
		fmt.Fprintf(w, "  #%-6d %-60s", r.Index, strings.Join(r.Labels, ","))
		for _, obj := range objectives {
			v, _ := r.Metrics.Objective(obj)
			fmt.Fprintf(w, " %s=%.4g", obj, v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteReports writes the report set of an exploration named name into
// dir: pareto.dat and pareto.plt for the first two objectives, summary.md
// and report.html.
func WriteReports(dir, name string, axisNames []string, feasible, front []core.Result, objectives []string) error {
	objX, objY := objectives[0], objectives[1]
	datPath := filepath.Join(dir, "pareto.dat")
	if err := WriteFile(datPath, func(w io.Writer) error {
		return WriteParetoDat(w, feasible, front, objX, objY)
	}); err != nil {
		return err
	}
	if err := WriteFile(filepath.Join(dir, "pareto.plt"), func(w io.Writer) error {
		title := fmt.Sprintf("%s: Pareto-optimal DM allocator configurations", name)
		return WriteGnuplotScript(w, datPath, title, objX, objY)
	}); err != nil {
		return err
	}
	md, err := MarkdownSummary(name, feasible, front, objectives)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "summary.md"), []byte(md), 0o644); err != nil {
		return err
	}
	return WriteFile(filepath.Join(dir, "report.html"), func(w io.Writer) error {
		return WriteHTML(w, name+" exploration report", axisNames, feasible, front, objX, objY)
	})
}

// WriteFile creates path and fills it with write, returning the first
// error of writing and closing.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

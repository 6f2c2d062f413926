// Command dmreport post-processes exploration results without re-running
// any simulation — the counterpart of the paper's separate Perl/O'Caml
// result parser. It reads a results.csv written by dmexplore, recomputes
// ranges and Pareto fronts for any objective pair, and emits the same
// report set (summary, Gnuplot data and script, HTML).
//
// Examples:
//
//	dmreport -in results/results.csv -axes 7
//	dmreport -in results/results.csv -axes 7 -objectives energy,cycles -out rep/
//	dmreport -journal results/journal.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dmexplore/internal/core"
	"dmexplore/internal/report"
	"dmexplore/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dmreport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dmreport", flag.ContinueOnError)
	var (
		inPath      = fs.String("in", "", "results CSV written by dmexplore (required unless -journal)")
		journalPath = fs.String("journal", "", "summarize a journal.jsonl written by dmexplore instead of a results CSV")
		lineage     = fs.Bool("lineage", false, "with -journal: reconstruct the ancestry tree of every Pareto-front member from the journaled provenance")
		axes        = fs.Int("axes", 0, "number of leading axis-label columns in the CSV (required)")
		objectives  = fs.String("objectives", "accesses,footprint", "comma-separated minimization objectives")
		outDir      = fs.String("out", "", "directory for regenerated reports (none when empty)")
		title       = fs.String("title", "dmreport", "report name: titles the plot, the summary and the HTML report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	objs := strings.Split(*objectives, ",")
	for i := range objs {
		objs[i] = strings.TrimSpace(objs[i])
	}
	if len(objs) < 2 {
		return fmt.Errorf("need at least two objectives")
	}
	if *lineage {
		if *journalPath == "" {
			return fmt.Errorf("-lineage needs -journal journal.jsonl")
		}
		return lineageReport(out, *journalPath, objs)
	}
	if *journalPath != "" {
		return summarizeJournal(out, *journalPath)
	}
	if *inPath == "" {
		return fmt.Errorf("need -in results.csv (or -journal journal.jsonl)")
	}
	if *axes <= 0 {
		return fmt.Errorf("need -axes (the CSV's leading label column count)")
	}

	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	results, err := report.ReadResultsCSV(f, *axes)
	f.Close()
	if err != nil {
		return err
	}
	feasible := core.Feasible(results)
	front, points, err := core.ParetoSet(feasible, objs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "results    %d rows, %d feasible\n", len(results), len(feasible))
	if err := report.WriteSummary(out, feasible, front, points, objs); err != nil {
		return err
	}
	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	axisNames := make([]string, *axes)
	for i := range axisNames {
		axisNames[i] = fmt.Sprintf("axis%d", i)
	}
	if err := report.WriteReports(*outDir, *title, axisNames, feasible, front, objs); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nreports written to %s\n", *outDir)
	return nil
}

// lineageReport reconstructs the search's provenance from a journal:
// the Pareto front for the requested objectives, then for each front
// member the full ancestry tree — which operator produced it, in which
// wave, from which parents — ending in an operator-attribution summary of the whole front.
func lineageReport(out io.Writer, path string, objs []string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	recs, err := telemetry.ReadJournal(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("journal %s has no records", path)
	}
	byIdx := telemetry.LineageIndex(recs)

	// Rebuild the results in index order (map iteration would make the
	// report ordering run-dependent) and reduce to the front.
	idxs := make([]int, 0, len(byIdx))
	for idx := range byIdx {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	results := make([]core.Result, 0, len(idxs))
	strategies := make(map[string]bool)
	for _, idx := range idxs {
		rec := byIdx[idx]
		results = append(results, core.ResultFromRecord(rec))
		if rec.Origin != nil {
			strategies[rec.Origin.Strategy] = true
		}
	}
	front, _, err := core.ParetoSet(core.Feasible(results), objs)
	if err != nil {
		return err
	}

	names := make([]string, 0, len(strategies))
	for s := range strategies {
		names = append(names, s)
	}
	sort.Strings(names)
	strategy := strings.Join(names, "+")
	if strategy == "" {
		strategy = "(no provenance)"
	}
	fmt.Fprintf(out, "lineage    %s: %d records, %d configurations, strategy %s\n",
		path, len(recs), len(byIdx), strategy)
	fmt.Fprintf(out, "front      %d members (objectives %s)\n", len(front), strings.Join(objs, ", "))

	frontIdx := make([]int, len(front))
	for i, m := range front {
		frontIdx[i] = m.Index
		rec := byIdx[m.Index]
		fmt.Fprintf(out, "\n#%-6d %s  [%s]", m.Index, strings.Join(m.Labels, ","), describeOrigin(rec.Origin))
		for _, obj := range objs {
			v, _ := m.Metrics.Objective(obj)
			fmt.Fprintf(out, "  %s=%.4g", obj, v)
		}
		fmt.Fprintln(out)
		printAncestry(out, byIdx, m.Index, "  ", map[int]bool{m.Index: true})
	}

	fmt.Fprintf(out, "\nfront operators:")
	for _, oc := range telemetry.CountOps(byIdx, frontIdx) {
		fmt.Fprintf(out, "  %s %d", oc.Op, oc.Count)
	}
	fmt.Fprintln(out)
	return nil
}

// printAncestry renders idx's parents as a tree, recursing until the
// ancestry bottoms out in parentless origins. seen collapses shared
// ancestors: an index already expanded in this tree is listed but not
// expanded again, so diamonds (and cycles in damaged journals) stay
// finite.
func printAncestry(out io.Writer, byIdx map[int]telemetry.Record, idx int, prefix string, seen map[int]bool) {
	rec, ok := byIdx[idx]
	if !ok || rec.Origin == nil {
		return
	}
	parents := rec.Origin.Parents
	for i, p := range parents {
		glyph, cont := "├─ ", "│  "
		if i == len(parents)-1 {
			glyph, cont = "└─ ", "   "
		}
		expanded := seen[p]
		note := ""
		if expanded {
			note = "  (see above)"
		}
		fmt.Fprintf(out, "%s%s#%d %s%s\n", prefix, glyph, p, describeOrigin(byIdx[p].Origin), note)
		if expanded {
			continue
		}
		seen[p] = true
		printAncestry(out, byIdx, p, prefix+cont, seen)
	}
}

// describeOrigin renders one origin as "op wave N".
func describeOrigin(o *telemetry.Origin) string {
	if o == nil {
		return "(no provenance)"
	}
	return fmt.Sprintf("%s wave %d", o.Op, o.Wave)
}

// summarizeJournal digests a run journal: where the sweep's time went,
// what the cache did, which configurations failed and which were slow.
func summarizeJournal(out io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	recs, err := telemetry.ReadJournal(f)
	f.Close()
	if err != nil {
		return err
	}
	d := telemetry.Digest(recs)
	fmt.Fprintf(out, "journal    %s: %d configurations\n", path, d.Records)
	fmt.Fprintf(out, "  cache    %d hits, %d memo hits\n", d.CacheHits, d.MemoHits)
	fmt.Fprintf(out, "  eval     %d composed (memo), %d partial, %d full\n",
		d.Composed, d.Incremental-d.Composed,
		d.Records-d.Incremental-d.CacheHits-d.MemoHits-d.Errors)
	fmt.Fprintf(out, "  time     %.2fs total worker time, slowest #%d at %.2fms\n",
		d.TotalSec, d.MaxIndex, d.MaxMS)
	fmt.Fprintf(out, "  outcome  %d errors, %d infeasible\n", d.Errors, d.Infeasible)
	for _, r := range recs {
		if r.Error != "" {
			fmt.Fprintf(out, "    #%-6d %s\n", r.Index, r.Error)
		}
	}
	return nil
}

package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmexplore/internal/core"
	"dmexplore/internal/profile"
	"dmexplore/internal/report"
	"dmexplore/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func writeSampleCSV(t *testing.T) string {
	t.Helper()
	results := []core.Result{
		{Index: 0, Labels: []string{"none", "single"}, Metrics: &profile.Metrics{
			ConfigLabel: "a", Accesses: 100, FootprintBytes: 5000,
			EnergyNJ: 10, Cycles: 1000, PeakRequestedBytes: 100,
		}},
		{Index: 1, Labels: []string{"d74", "pow2"}, Metrics: &profile.Metrics{
			ConfigLabel: "b", Accesses: 50, FootprintBytes: 9000,
			EnergyNJ: 7, Cycles: 900, PeakRequestedBytes: 100,
		}},
		{Index: 2, Labels: []string{"d74", "single"}, Metrics: &profile.Metrics{
			ConfigLabel: "c", Accesses: 200, FootprintBytes: 9500,
			EnergyNJ: 20, Cycles: 2000, PeakRequestedBytes: 100,
		}},
	}
	path := filepath.Join(t.TempDir(), "results.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := report.WriteResultsCSV(f, []string{"pools", "classes"}, results); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReportFromCSV(t *testing.T) {
	path := writeSampleCSV(t)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-axes", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "3 rows, 3 feasible") {
		t.Fatalf("output:\n%s", s)
	}
	// Config 2 is dominated by config 0: front is 2 configurations.
	if !strings.Contains(s, "Pareto-optimal configurations: 2") {
		t.Fatalf("front wrong:\n%s", s)
	}
}

func TestReportWritesFiles(t *testing.T) {
	path := writeSampleCSV(t)
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-axes", "2", "-out", dir,
		"-objectives", "energy,cycles"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"pareto.dat", "pareto.plt", "report.html", "summary.md"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func TestReportErrors(t *testing.T) {
	path := writeSampleCSV(t)
	cases := [][]string{
		{},            // no input
		{"-in", path}, // no axes
		{"-in", "/nonexistent", "-axes", "2"},
		{"-in", path, "-axes", "2", "-objectives", "accesses"},
		{"-in", path, "-axes", "5"}, // wrong axis count
		{"-in", path, "-axes", "2", "-objectives", "bogus,accesses"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestJournalSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j := telemetry.NewJournal(f)
	j.Record(telemetry.Record{Index: 0, Labels: []string{"a", "b"}, DurationMS: 1.5, Accesses: 10})
	j.Record(telemetry.Record{Index: 3, Labels: []string{"c", "d"}, DurationMS: 4.5, CacheHit: true})
	j.Record(telemetry.Record{Index: 4, DurationMS: 0.8, Accesses: 11, Incremental: true, EventsSkipped: 900})
	j.Record(telemetry.Record{Index: 5, DurationMS: 0.1, Accesses: 12, Incremental: true, Composed: true, EventsSkipped: 1200})
	j.Record(telemetry.Record{Index: 7, Error: "configuration 7 [x y]: boom"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-journal", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"5 configurations", "1 hits", "1 errors", "slowest #3", "boom",
		"1 composed (memo), 1 partial, 1 full"} {
		if !strings.Contains(s, want) {
			t.Errorf("journal summary lacks %q:\n%s", want, s)
		}
	}
}

// TestJournalSurrogateGolden pins the full -journal output for a journal
// recorded by an older surrogate-assisted run against a golden file: the
// records' retired prediction and surrogate-rank keys are ignored, and
// the summary renders exactly as recorded.
func TestJournalSurrogateGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-journal", filepath.Join("testdata", "surrogate-journal.jsonl")}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "surrogate-journal.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("journal summary diverged from golden file:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}

func TestJournalSummaryMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-journal", "/nonexistent/journal.jsonl"}, &out); err == nil {
		t.Fatal("missing journal accepted")
	}
}

// TestLineageGolden pins `dmreport -lineage` against a recorded journal
// (testdata/journal.jsonl: a seeded NSGA-II run recorded when the search
// still had a surrogate; its surrogate_rank and admit keys are ignored).
// The rendered ancestry trees are a contract — regenerate with
// `go test ./cmd/dmreport -run Lineage -update` after deliberate
// format changes.
func TestLineageGolden(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-lineage", "-journal", filepath.Join("testdata", "journal.jsonl"),
		"-objectives", "accesses,footprint",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()

	golden := filepath.Join("testdata", "lineage.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run: go test ./cmd/dmreport -run Lineage -update)", err)
	}
	if got != string(want) {
		t.Fatalf("lineage output drifted from %s:\n%s", golden, got)
	}
}

// TestLineageTreesComplete verifies the semantics independently of the
// golden bytes: every front member is printed with its operator and
// every ancestor the journal knows about appears in its tree.
func TestLineageTreesComplete(t *testing.T) {
	path := filepath.Join("testdata", "journal.jsonl")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	byIdx := telemetry.LineageIndex(recs)

	var out bytes.Buffer
	if err := run([]string{"-lineage", "-journal", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"strategy nsga2", "front operators:", "crossover wave"} {
		if !strings.Contains(s, want) {
			t.Fatalf("lineage output missing %q:\n%s", want, s)
		}
	}

	// Recompute the front exactly as the report does and check each
	// member's full ancestor closure is rendered.
	idxs := make([]int, 0, len(byIdx))
	for idx := range byIdx {
		idxs = append(idxs, idx)
	}
	results := make([]core.Result, 0, len(idxs))
	for _, rec := range byIdx {
		results = append(results, core.ResultFromRecord(rec))
	}
	front, _, err := core.ParetoSet(core.Feasible(results), []string{"accesses", "footprint"})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("recorded journal yields an empty front")
	}
	for _, m := range front {
		if !strings.Contains(s, fmt.Sprintf("#%-6d", m.Index)) {
			t.Errorf("front member #%d not reported", m.Index)
		}
		for _, anc := range telemetry.Ancestors(byIdx, m.Index) {
			if !strings.Contains(s, fmt.Sprintf("#%d ", anc)) {
				t.Errorf("ancestor #%d of #%d missing from the tree", anc, m.Index)
			}
		}
	}
}

func TestLineageRequiresJournal(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-lineage"}, &out); err == nil {
		t.Fatal("-lineage without -journal accepted")
	}
}

package report

import (
	"bytes"
	"strings"
	"testing"

	"dmexplore/internal/core"
	"dmexplore/internal/profile"
)

func sampleResults() []core.Result {
	return []core.Result{
		{Index: 0, Labels: []string{"none", "single"}, Metrics: &profile.Metrics{
			ConfigLabel: "cfg0", Accesses: 100, FootprintBytes: 1000,
			EnergyNJ: 12.5, Cycles: 5000, Mallocs: 10, Frees: 10,
			PeakRequestedBytes: 800,
		}},
		{Index: 1, Labels: []string{"d74", "pow2"}, Metrics: &profile.Metrics{
			ConfigLabel: "cfg1", Accesses: 50, FootprintBytes: 2000,
			EnergyNJ: 8.25, Cycles: 4000, Mallocs: 10, Frees: 10, Failures: 2,
			PeakRequestedBytes: 800,
		}},
	}
}

func TestResultsCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResultsCSV(&buf, []string{"pools", "classes"}, sampleResults()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "pools,classes,index,label,feasible,accesses") {
		t.Fatalf("header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	got, err := ReadResultsCSV(strings.NewReader(out), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows %d", len(got))
	}
	for i, r := range got {
		want := sampleResults()[i]
		if r.Index != want.Index {
			t.Fatalf("row %d index %d", i, r.Index)
		}
		if r.Labels[0] != want.Labels[0] || r.Labels[1] != want.Labels[1] {
			t.Fatalf("row %d labels %v", i, r.Labels)
		}
		m, wm := r.Metrics, want.Metrics
		if m.Accesses != wm.Accesses || m.FootprintBytes != wm.FootprintBytes ||
			m.EnergyNJ != wm.EnergyNJ || m.Cycles != wm.Cycles ||
			m.Failures != wm.Failures || m.PeakRequestedBytes != wm.PeakRequestedBytes {
			t.Fatalf("row %d metrics %+v != %+v", i, m, wm)
		}
	}
}

func TestReadResultsCSVErrors(t *testing.T) {
	if _, err := ReadResultsCSV(strings.NewReader(""), 2); err == nil {
		t.Fatal("empty CSV accepted")
	}
	if _, err := ReadResultsCSV(strings.NewReader("a,b\n"), 2); err == nil {
		t.Fatal("short header accepted")
	}
	var buf bytes.Buffer
	WriteResultsCSV(&buf, []string{"x"}, sampleResults())
	bad := strings.Replace(buf.String(), "100", "oops", 1)
	if _, err := ReadResultsCSV(strings.NewReader(bad), 1); err == nil {
		t.Fatal("corrupt row accepted")
	}
}

func TestWriteParetoDat(t *testing.T) {
	all := sampleResults()
	front := all[:1]
	var buf bytes.Buffer
	if err := WriteParetoDat(&buf, all, front, profile.ObjAccesses, profile.ObjFootprint); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "100 1000 0") || !strings.Contains(out, "50 2000 1") {
		t.Fatalf("data rows missing:\n%s", out)
	}
	// Two gnuplot index blocks separated by a double blank line.
	if !strings.Contains(out, "\n\n\n# pareto front") {
		t.Fatalf("front block missing:\n%s", out)
	}
	if _, err := buf.WriteString(""); err != nil {
		t.Fatal(err)
	}
	if err := WriteParetoDat(&buf, all, front, "nope", profile.ObjFootprint); err == nil {
		t.Fatal("unknown objective accepted")
	}
}

func TestWriteGnuplotScript(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGnuplotScript(&buf, "out/pareto.dat", "Easyport", "accesses", "footprint"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"set title", "out/pareto.dat", "index 1", "Pareto-optimal"} {
		if !strings.Contains(out, want) {
			t.Fatalf("script missing %q:\n%s", want, out)
		}
	}
}

func TestMarkdownSummary(t *testing.T) {
	all := sampleResults()
	md, err := MarkdownSummary("test", all, all[:1], []string{profile.ObjAccesses, profile.ObjFootprint})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"### test", "| accesses |", "| footprint |", "2 feasible, 1 Pareto"} {
		if !strings.Contains(md, want) {
			t.Fatalf("summary missing %q:\n%s", want, md)
		}
	}
	if _, err := MarkdownSummary("x", all, all, []string{"nope"}); err == nil {
		t.Fatal("unknown objective accepted")
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/pareto"
	"dmexplore/internal/profile"
	"dmexplore/internal/serve"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

func TestRunSmallExploration(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-workload", "easyport", "-scale", "5", "-quiet",
		"-sample", "24",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"explored 24 configurations",
		"Pareto-optimal configurations:",
		"accesses", "footprint", "energy", "cycles", "knee:",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunWritesReports(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{
		"-workload", "vtc", "-scale", "10", "-quiet",
		"-sample", "16", "-out", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"results.csv", "pareto.dat", "pareto.plt", "summary.md", "report.html"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing report %s: %v", f, err)
		}
	}
}

func TestRunScreenStrategy(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-workload", "easyport", "-scale", "5", "-quiet",
		"-strategy", "screen", "-sample", "16", "-budget", "48",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "explored 48 configurations") {
		t.Fatalf("screen output:\n%s", out.String())
	}
}

func TestRunSpaceFile(t *testing.T) {
	spec := `{
	  "name": "cli-spec",
	  "base": {"general": {"layer": "main-dram", "classes": "single",
	    "fit": "first", "order": "lifo", "links": "single",
	    "split": "always", "coalesce": "immediate", "headers": "btag",
	    "growth": "chunk", "chunk_bytes": 8192}},
	  "axes": [{"name": "fit", "options": [
	    {"label": "first", "general": {"fit": "first"}},
	    {"label": "best", "general": {"fit": "best"}}]},
	   {"name": "order", "options": [
	    {"label": "lifo", "general": {"order": "lifo"}},
	    {"label": "addr", "general": {"order": "addr"}}]}]
	}`
	path := filepath.Join(t.TempDir(), "space.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{
		"-workload", "synthetic", "-scale", "10", "-quiet",
		"-spacefile", path,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cli-spec: 4 configurations") {
		t.Fatalf("spacefile output:\n%s", out.String())
	}
}

// TestRunTraceFile replays the narrow Easyport trace from a v2 and a
// text file: both must print the front the generated workload prints.
// A text trace that frees an unknown ID must fail with an error naming
// the file.
func TestRunTraceFile(t *testing.T) {
	front := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append(args, "-sample", "24", "-quiet"), &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		s := out.String()
		i := strings.Index(s, "\nPareto-optimal configurations:")
		if i < 0 {
			t.Fatalf("%v: no front in output:\n%s", args, s)
		}
		return s[i:]
	}
	want := front("-workload", "easyport", "-scale", "5")

	gen, err := workload.New("easyport", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var text bytes.Buffer
	if err := trace.WriteText(&text, tr); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := trace.WriteBinaryV2(&v2, tr); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{"v2": v2.Bytes(), "text": text.Bytes()}
	for format, data := range files {
		path := filepath.Join(dir, format+".trace")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := front("-workload", "easyport", "-trace", path); got != want {
			t.Fatalf("%s trace file front differs from the generated workload's:\n%s\nwant:\n%s", format, got, want)
		}
	}

	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, append(text.Bytes(), "f 999999999\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-trace", bad, "-sample", "4", "-quiet"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("free of an unknown ID: error %v does not name %s", err, bad)
	}
}

// TestRunTraceFileFooterCut: a v2 trace whose footer trailer lost its
// last 8 bytes is refused at every worker count, one included, with an
// error naming the file.
func TestRunTraceFileFooterCut(t *testing.T) {
	gen, err := workload.New("easyport", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := trace.WriteBinaryV2(&v2, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.trace")
	if err := os.WriteFile(path, v2.Bytes()[:v2.Len()-8], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "2"} {
		err := run([]string{"-trace", path, "-workers", workers, "-sample", "4", "-quiet"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "missing footer magic") || !strings.Contains(err.Error(), path) {
			t.Fatalf("-workers %s: %v, want the footer-cut trace %s refused", workers, err, path)
		}
	}
}

// TestRunKneeOnTiedFront: on a three-objective front whose first
// objective ties, dmexplore names as the knee the front member
// pareto.Knee picks over the front's objective vectors.
func TestRunKneeOnTiedFront(t *testing.T) {
	objs := []string{profile.ObjFootprint, profile.ObjEnergy, profile.ObjAccesses}
	var out bytes.Buffer
	err := run([]string{
		"-workload", "easyport", "-scale", "5", "-quiet", "-sample", "64",
		"-objectives", strings.Join(objs, ","),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	// The same sample, evaluated and reduced here.
	gen, err := workload.New("easyport", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	space, err := core.WorkloadSpace("easyport", "narrow")
	if err != nil {
		t.Fatal(err)
	}
	results, err := (&core.Runner{Hierarchy: memhier.EmbeddedSoC(), Trace: tr}).Sample(space, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	front, _, err := core.ParetoSet(core.Feasible(results), objs)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]pareto.Point, len(front))
	tied := false
	for i, r := range front {
		for _, obj := range objs {
			v, _ := r.Metrics.Objective(obj)
			points[i].Values = append(points[i].Values, v)
		}
		tied = tied || i > 0 && points[i].Values[0] == points[i-1].Values[0]
	}
	if !tied {
		t.Fatalf("front %v has no tie in %s: the case this test is for is gone", points, objs[0])
	}
	knee := front[pareto.Knee(points)]
	if want := fmt.Sprintf("knee: config %d %v\n", knee.Index, knee.Labels); !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-workload", "nope"},
		{"-hierarchy", "nope"},
		{"-objectives", "accesses"},
		{"-objectives", "accesses,bogus", "-scale", "5", "-sample", "4"},
		{"-strategy", "bogus"},
		{"-spacefile", "/nonexistent/space.json"},
		{"-space", "bogus"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(append(args, "-quiet"), &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunJournalAndSummary pins the acceptance contract: a -out run
// emits a parseable JSONL journal plus a run-summary.json whose
// per-configuration count and cache-hit totals match the sweep exactly —
// across a cold and a fully cached run.
func TestRunJournalAndSummary(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache.jsonl")
	runOnce := func(out string) {
		t.Helper()
		var buf bytes.Buffer
		err := run([]string{
			"-workload", "easyport", "-scale", "5", "-quiet",
			"-sample", "24", "-out", out, "-cache", cache,
		}, &buf)
		if err != nil {
			t.Fatal(err)
		}
	}

	cold := filepath.Join(dir, "cold")
	runOnce(cold)
	f, err := os.Open(filepath.Join(cold, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 24 {
		t.Fatalf("cold journal has %d records", len(recs))
	}
	sum, err := telemetry.ReadRunSummary(filepath.Join(cold, "run-summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Configurations != 24 || sum.JournalRecords != 24 {
		t.Fatalf("cold summary: %+v", sum)
	}
	if sum.Telemetry.CacheHits != 0 || sum.Cache == nil || sum.Cache.Hits != 0 {
		t.Fatalf("cold summary cache: %+v %+v", sum.Telemetry, sum.Cache)
	}
	if got := int(sum.Telemetry.Sims + sum.Telemetry.CacheHits + sum.Telemetry.MemoHits); got != 24 {
		t.Fatalf("cold sweep unaccounted: %+v", sum.Telemetry)
	}

	warm := filepath.Join(dir, "warm")
	runOnce(warm)
	f, err = os.Open(filepath.Join(warm, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err = telemetry.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, r := range recs {
		if r.CacheHit {
			hits++
		}
	}
	sum, err = telemetry.ReadRunSummary(filepath.Join(warm, "run-summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if hits != 24 || sum.Telemetry.CacheHits != 24 || sum.Cache.Hits != 24 {
		t.Fatalf("warm run: journal hits %d, telemetry %+v, cache %+v",
			hits, sum.Telemetry, sum.Cache)
	}
	if sum.Telemetry.Sims != 0 {
		t.Fatalf("warm run simulated: %+v", sum.Telemetry)
	}
}

// TestRunMetricsAddr boots the expvar/pprof endpoint on an ephemeral
// port and requires its address in the tool output.
func TestRunMetricsAddr(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-workload", "easyport", "-scale", "5", "-quiet",
		"-sample", "8", "-metrics-addr", "127.0.0.1:0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "/debug/vars") {
		t.Fatalf("metrics address not announced:\n%s", out.String())
	}
}

// TestMetricsAddrKeepsNoRawSpans holds -metrics-addr without -trace-out
// to stage aggregates: its recorder stores no raw span, and the run
// still prints the stage table and writes the run summary's stages.
func TestMetricsAddrKeepsNoRawSpans(t *testing.T) {
	for _, c := range []struct {
		traceOut, metricsAddr string
		raw                   bool
	}{
		{"run.trace.json", "", true},
		{"run.trace.json", "127.0.0.1:0", true},
		{"", "127.0.0.1:0", false},
	} {
		rec := flightRecorder(c.traceOut, c.metricsAddr, 2)
		rec.Ring(0).Record(span.StageFullSim, 0, time.Millisecond, 1)
		if raw := rec.Ring(0).Len() > 0; raw != c.raw {
			t.Errorf("-trace-out %q -metrics-addr %q: raw spans kept %v, want %v", c.traceOut, c.metricsAddr, raw, c.raw)
		}
		if got := rec.Snapshot()[span.StageFullSim].Count; got != 1 {
			t.Errorf("-trace-out %q -metrics-addr %q: full-sim count %d, want 1", c.traceOut, c.metricsAddr, got)
		}
	}
	if flightRecorder("", "", 2) != nil {
		t.Error("a run without -trace-out or -metrics-addr has a recorder")
	}

	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{
		"-workload", "easyport", "-scale", "5", "-quiet",
		"-sample", "8", "-metrics-addr", "127.0.0.1:0", "-out", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pipeline stages") {
		t.Fatalf("stage breakdown not printed:\n%s", out.String())
	}
	sum, err := telemetry.ReadRunSummary(filepath.Join(dir, "run-summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Stages) == 0 {
		t.Fatal("run summary carries no stages")
	}
}

// TestRunProgressLine checks the rewritten reporter: a non-quiet run
// ends with a complete final progress line.
func TestRunProgressLine(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-workload", "easyport", "-scale", "5", "-sample", "16",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "profiled 16/16 (100%)") {
		t.Fatalf("final progress line missing:\n%s", s)
	}
	if !strings.Contains(s, "telemetry") {
		t.Fatalf("telemetry summary missing:\n%s", s)
	}
}

// TestRunTraceOutAndStageSummary pins the flight-recorder acceptance:
// -trace-out writes a Chrome trace-event JSON with events on every
// active ring, run-summary.json carries the per-stage breakdown, and
// the dominant stages account for the evaluation wall time.
func TestRunTraceOutAndStageSummary(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	var out bytes.Buffer
	err := run([]string{
		"-workload", "easyport", "-scale", "5", "-quiet",
		"-sample", "24", "-workers", "2",
		"-out", dir, "-trace-out", tracePath,
		"-cache", filepath.Join(dir, "cache.jsonl"),
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pipeline stages") {
		t.Fatalf("stage breakdown not printed:\n%s", out.String())
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	events, dropped, err := span.ReadTrace(data)
	if err != nil {
		t.Fatalf("trace not loadable: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d spans in a tiny run", dropped)
	}
	byStage := map[string]int{}
	for _, ev := range events {
		if ev.Phase == "X" {
			byStage[ev.Name]++
		}
	}
	for _, stage := range []string{"compile", "full-sim", "batch-wave", "cache-probe"} {
		if byStage[stage] == 0 {
			t.Fatalf("trace has no %q events: %v", stage, byStage)
		}
	}
	if byStage["full-sim"] != 24 {
		t.Fatalf("full-sim events %d, want 24", byStage["full-sim"])
	}

	sum, err := telemetry.ReadRunSummary(filepath.Join(dir, "run-summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Stages) == 0 || sum.Interrupted {
		t.Fatalf("summary stages %v interrupted %v", sum.Stages, sum.Interrupted)
	}
	stageSec := map[string]float64{}
	for _, st := range sum.Stages {
		if st.Count == 0 {
			t.Fatalf("summary carries an idle stage: %+v", st)
		}
		stageSec[st.Name] = st.Seconds
	}
	// The coordinator's batch wave encloses the whole evaluation: its
	// recorded time must be within the run's wall clock, and the sim
	// time within the wave time (cross-checked against the collector).
	if stageSec["batch-wave"] <= 0 || stageSec["batch-wave"] > sum.ElapsedSec {
		t.Fatalf("batch-wave %.4fs vs elapsed %.4fs", stageSec["batch-wave"], sum.ElapsedSec)
	}
	if stageSec["full-sim"] <= 0 || stageSec["full-sim"] > sum.Telemetry.SimSecTotal*1.05+0.001 {
		t.Fatalf("full-sim %.4fs vs telemetry sim %.4fs", stageSec["full-sim"], sum.Telemetry.SimSecTotal)
	}
}

// TestRunSigintFlushesJournal re-executes the test binary as a real
// dmexplore sweep (helper process below), interrupts it mid-run, and
// requires the journal tail, an Interrupted run summary and the span
// trace on disk — the flight recorder's crash-forensics contract.
func TestRunSigintFlushesJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperSlowSweep", "-test.v")
	cmd.Env = append(os.Environ(), "DMEXPLORE_HELPER_SWEEP=1", "DMEXPLORE_HELPER_DIR="+dir)
	var cmdOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &cmdOut, &cmdOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for the sweep to be demonstrably underway: journal on disk
	// with a few flushed-or-buffered records behind it.
	journalPath := filepath.Join(dir, "journal.jsonl")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(journalPath); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("sweep never started:\n%s", cmdOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 130 {
		t.Fatalf("exit %v (want code 130):\n%s", err, cmdOut.String())
	}

	// Every journal line must parse — an unflushed buffer would truncate
	// the tail mid-record.
	f, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(f)
	f.Close()
	if err != nil {
		t.Fatalf("journal tail corrupt after SIGINT: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("journal empty after SIGINT")
	}
	for _, rec := range recs {
		if rec.Origin == nil {
			t.Fatalf("record %d lost its origin", rec.Index)
		}
	}

	sum, err := telemetry.ReadRunSummary(filepath.Join(dir, "run-summary.json"))
	if err != nil {
		t.Fatalf("no run summary after SIGINT: %v", err)
	}
	if !sum.Interrupted {
		t.Fatalf("summary not marked interrupted: %+v", sum)
	}
	if sum.Configurations == 0 || len(sum.Stages) == 0 {
		t.Fatalf("interrupted summary empty: %+v", sum)
	}

	data, err := os.ReadFile(filepath.Join(dir, "run.trace.json"))
	if err != nil {
		t.Fatalf("no trace after SIGINT: %v", err)
	}
	events, _, err := span.ReadTrace(data)
	if err != nil || len(events) == 0 {
		t.Fatalf("trace after SIGINT: %d events, err %v", len(events), err)
	}
}

// TestHelperSlowSweep is not a test: it is the child process body for
// TestRunSigintFlushesJournal — a deliberately slow sweep (modelled
// backend latency) that the parent interrupts.
func TestHelperSlowSweep(t *testing.T) {
	if os.Getenv("DMEXPLORE_HELPER_SWEEP") != "1" {
		t.Skip("helper process body")
	}
	dir := os.Getenv("DMEXPLORE_HELPER_DIR")
	err := run([]string{
		"-workload", "easyport", "-scale", "5", "-quiet",
		"-sample", "256", "-workers", "2", "-eval-latency", "25ms",
		"-out", dir, "-trace-out", filepath.Join(dir, "run.trace.json"),
	}, io.Discard)
	// The signal handler exits 130 before run returns; reaching here
	// means the parent never interrupted us.
	t.Fatalf("sweep ran to completion (err=%v)", err)
}

// TestRunRejectsRetiredSearches: the single-solution searches and the
// surrogate are gone, and asking for them is an error before any work
// starts, never a silent fallback to another search.
func TestRunRejectsRetiredSearches(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-strategy", "hillclimb"}, `unknown strategy "hillclimb"`},
		{[]string{"-strategy", "anneal", "-budget", "40"}, `unknown strategy "anneal"`},
		{[]string{"-strategy", "evolve", "-surrogate"}, "flag provided but not defined: -surrogate"},
		{[]string{"-strategy", "screen", "-surrogate-warm", "j.jsonl"}, "flag provided but not defined: -surrogate-warm"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(append([]string{"-workload", "easyport", "-scale", "5", "-quiet"}, c.args...), &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("args %v: error %v, want it to mention %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Fatalf("args %v: rejected after starting work:\n%s", c.args, out.String())
		}
	}
}

func TestValidateFlagRejectsContradictions(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"surrogate-warm alone", []string{"-surrogate-warm", "j.jsonl"}, "flag provided but not defined: -surrogate-warm"},
		{"budget on exhaustive", []string{"-budget", "100"}, "-budget has no effect with -strategy exhaustive"},
		{"sample on hillclimb", []string{"-strategy", "hillclimb", "-sample", "10"}, `unknown strategy "hillclimb"`},
		{"negative latency", []string{"-eval-latency", "-5ms"}, "-eval-latency must be >= 0"},
		{"duplicate objectives", []string{"-objectives", "accesses,accesses"}, "duplicate objective"},
		{"islands without submit", []string{"-strategy", "evolve", "-islands", "4"}, "-islands only applies with -submit"},
		{"migrate-every without submit", []string{"-strategy", "evolve", "-migrate-every", "2"}, "-migrate-every only applies with -submit"},
		{"submit with cache", []string{"-submit", "http://x", "-cache", "c.jsonl"}, "-cache is local-only"},
		{"submit with surrogate", []string{"-submit", "http://x", "-strategy", "evolve", "-surrogate"}, "flag provided but not defined: -surrogate"},
		{"submit with trace", []string{"-submit", "http://x", "-trace", "t.bin"}, "-trace is local-only"},
		{"submit with guided local strategy", []string{"-submit", "http://x", "-strategy", "screen"}, "-submit supports -strategy exhaustive|evolve"},
		{"submit with auto space", []string{"-submit", "http://x", "-space", "auto"}, "-space auto is local-only"},
		{"islands on submitted sweep", []string{"-submit", "http://x", "-islands", "4"}, "-islands requires -strategy evolve"},
		{"zero islands", []string{"-submit", "http://x", "-strategy", "evolve", "-islands", "0"}, "-islands must be >= 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args, io.Discard)
			if err == nil {
				t.Fatalf("args %v accepted", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("args %v: error %q, want it to mention %q", c.args, err, c.want)
			}
		})
	}
}

// TestRunIncrementalStoreKeepsMetrics runs the same incremental sweep
// twice sharing a -cache store: the first invocation must record one
// metrics record per configuration and no general-pool run, the second
// must load them and serve every configuration without simulating.
func TestRunIncrementalStoreKeepsMetrics(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store.jsonl")
	args := []string{
		"-workload", "easyport", "-scale", "5", "-quiet", "-out", dir,
		"-sample", "32", "-incremental", "-cache", store,
	}
	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "cache      "+store+" (0 entries)") {
		t.Fatalf("first run did not start from an empty store:\n%s", first.String())
	}
	saved, err := os.ReadFile(store)
	if err != nil {
		t.Fatalf("first run saved no store: %v", err)
	}
	if n := bytes.Count(saved, []byte(`"metrics":`)); n != 32 || bytes.Contains(saved, []byte(`"run":`)) {
		t.Fatalf("store holds %d metrics records, want 32 and no pool run:\n%.400s", n, saved)
	}
	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if s := second.String(); strings.Contains(s, "(0 entries)") || !strings.Contains(s, "cache      "+store) {
		t.Fatalf("second run did not load the store:\n%s", s)
	}
	sum, err := telemetry.ReadRunSummary(filepath.Join(dir, "run-summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Telemetry.Sims != 0 || sum.Telemetry.PartialSims != 0 || sum.Telemetry.CacheHits != 32 {
		t.Fatalf("second run was not served from the store: %+v", sum.Telemetry)
	}
}

// TestRunSubmitMode drives the full service path through the CLI: an
// in-process coordinator and worker, a submitted island search, the
// followed journal written to -out.
func TestRunSubmitMode(t *testing.T) {
	coord, err := serve.NewCoordinator(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	w := &serve.Worker{Coordinator: srv.URL, ID: "cli-test", Slots: 2, SessionWorkers: 2, Poll: 10 * time.Millisecond}
	go func() {
		defer close(workerDone)
		_ = w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-workerDone
	}()

	dir := t.TempDir()
	var out bytes.Buffer
	err = run([]string{
		"-submit", srv.URL, "-strategy", "evolve",
		"-workload", "easyport", "-scale", "5",
		"-sample", "8", "-budget", "64", "-sample-seed", "11",
		"-islands", "2", "-migrate-every", "2",
		"-out", dir, "-quiet",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"submitted  job", "done in", "Pareto-optimal configurations:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("submit output missing %q:\n%s", want, s)
		}
	}
	jf, err := os.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadJournal(jf)
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("followed journal is empty")
	}
	islands := map[int]bool{}
	for _, rec := range recs {
		if rec.Worker != "cli-test" {
			t.Fatalf("record missing worker stamp: %+v", rec)
		}
		islands[rec.Island] = true
	}
	if !islands[1] || !islands[2] {
		t.Fatalf("journal missing island stamps: %v", islands)
	}
}

// Command perfbench is dmexplore's repository benchmark. It drives the
// real public pipeline on one named workload in the raw-simulation
// regime (no modelled backend latency, one worker per CPU, everything in
// this process), repeats the workload's closed-loop job until --seconds
// have passed, checks every output for correctness, and prints one JSON
// object as its last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload sweep-vtc --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose
// spans are written as Chrome trace-event JSON under .bench_build.
// See perfbench/README.md for every metric and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// namedWorkload is one closed-loop job of the benchmark.
type namedWorkload struct {
	name string
	// run performs one iteration: set-up, then exploration through the
	// front, reports and journal. t is nil on untraced iterations.
	run func(b *bench, t *tracer) (*iter, error)
	// pinned marks an Easyport workload: it runs over the default trace
	// whatever --seed says, because the trace and the configurations a
	// job meets decide its cost (README.md gives the measurements).
	// sweep-vtc takes its trace from --seed.
	pinned bool
}

var workloads = []namedWorkload{
	{"sweep-vtc", runSweepVTC, false},
	{"nsga-easyport", runNSGAEasyport, true},
	{"profile-log", runProfileLog, true},
	{"serve-islands", runServeIslands, true},
}

// defaultSearchSeed seeds every search and configuration sample unless
// --search-seed says otherwise: the seed the earlier BENCH_* harnesses
// used.
const defaultSearchSeed = 42

// bench is one benchmark run's fixed inputs.
type bench struct {
	seed         uint64 // --seed, which names the run
	workloadSeed uint64 // the trace generators draw from it
	searchSeed   uint64 // NSGA-II and configuration sampling draw from it
	scale        int    // percent of each workload's default size
	workers      int    // simulation workers: one per CPU
	outDir       string // where the workload writes reports, journals and logs

	logIn *logTrace // profile-log's input trace, made on first use
}

// iter is one iteration of a workload.
type iter struct {
	setup   time.Duration // everything before the first evaluation request
	explore time.Duration // first request until front, reports and journal are written
	call    time.Duration // inside the exploration call
	evals   int           // distinct evaluations returned (profile-log: logged runs)
	alloc   uint64        // Go heap bytes allocated during explore
	hv      float64       // normalised front hypervolume
	failed  int           // evaluations that returned an error or failed a check
	print   string        // fingerprint of the simulated outputs
	root    int           // root span of a traced iteration
	layer   map[string]float64

	// verify re-derives a sample of the outputs through an independent
	// path and returns how many checks ran and how many failed.
	verify func() (checks, failed int, err error)
}

// traceScale is a workload's trace length in percent of the default:
// pct of it at full benchmark scale, shrunk with --scale.
func (b *bench) traceScale(pct int) int { return max(1, b.scale*pct/100) }

func newIter() *iter { return &iter{root: -1, layer: map[string]float64{}} }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs the benchmark the arguments describe and prints its result
// line to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweep-vtc|nsga-easyport|profile-log|serve-islands")
	seed := fs.Uint64("seed", 1, "run seed: the trace seed of sweep-vtc")
	workloadSeed := fs.Uint64("workload-seed", 0, "trace seed, overriding --seed (the Easyport workloads default to 1, the default trace)")
	searchSeed := fs.Uint64("search-seed", defaultSearchSeed, "NSGA-II and configuration-sample seed")
	seconds := fs.Float64("seconds", 25, "how long to repeat the workload")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	scale := fs.Int("scale", 100, "percent of the default workload size (the smoke test shrinks it)")
	out := fs.String("out", ".bench_build", "directory for results, traces and scratch files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *namedWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seed == 0 || *searchSeed == 0 || *scale <= 0 {
		return errors.New("--seed, --search-seed and --scale must be positive")
	}
	if *workloadSeed == 0 {
		*workloadSeed = *seed
		if w.pinned {
			*workloadSeed = 1
		}
	}
	runDir := filepath.Join(*out, "run", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	b := &bench{
		seed: *seed, workloadSeed: *workloadSeed, searchSeed: *searchSeed, scale: *scale,
		workers: runtime.NumCPU(), outDir: runDir,
	}
	res, err := measure(b, w, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res.line)
	if err != nil {
		return err
	}
	if err := writeRecord(*out, w.name, b, *traced == 1, res); err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.line.Correct {
		return fmt.Errorf("%s: %d of %d evaluations or checks failed", w.name, res.line.Failed, res.line.Attempted)
	}
	return nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one timed iteration in the run's record.
type sample struct {
	Traced   bool    `json:"traced"`
	Evals    int     `json:"evals"`
	SetupS   float64 `json:"setup_s"`
	ExploreS float64 `json:"explore_s"`
	CallS    float64 `json:"call_s"`
}

type measurement struct {
	line      resultLine
	samples   []sample // per iteration, in run order
	traceFile string
}

// minIters is the fewest iterations a run makes, however long they take:
// enough for a median and, in a traced run, two of each kind.
const minIters = 4

// measure repeats the workload for d, then checks its outputs and
// reduces the iterations to the reported metrics.
func measure(b *bench, w *namedWorkload, d time.Duration, traced bool, out string) (*measurement, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// A traced run alternates traced and plain iterations, so each pair
	// prices the tracing on identical work.
	var plain, withSpans []*iter
	start := time.Now()
	for i := 0; i < minIters || time.Since(start) < d; i++ {
		// Each iteration starts from a collected heap, so one
		// iteration's garbage is not charged to the next.
		runtime.GC()
		var t *tracer
		if traced && i%2 == 0 {
			t = tr
		}
		it, err := w.run(b, t)
		if err != nil {
			return nil, fmt.Errorf("%s iteration %d: %w", w.name, i, err)
		}
		if t != nil {
			withSpans = append(withSpans, it)
		} else {
			plain = append(plain, it)
		}
	}
	rssMB := peakRSSMB()
	all := append(append([]*iter(nil), plain...), withSpans...)

	m := &measurement{}
	m.line.Metrics = map[string]metric{}
	for _, it := range all {
		m.line.Attempted += it.evals
		m.line.Failed += it.failed
		if it.print != all[0].print {
			// Every iteration runs the same inputs, so the simulated
			// outputs must repeat bit for bit.
			m.line.Failed++
		}
		m.samples = append(m.samples, sample{
			Traced: it.root >= 0, Evals: it.evals,
			SetupS: it.setup.Seconds(), ExploreS: it.explore.Seconds(), CallS: it.call.Seconds(),
		})
	}
	checks, bad, err := all[0].verify()
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	m.line.Attempted += checks
	m.line.Failed += bad
	m.line.Correct = m.line.Failed == 0

	if !traced {
		put := func(name, unit string, f func(*iter) float64) {
			m.line.Metrics[name] = metric{median(collect(plain, f)), unit}
		}
		put("setup_s", "s", func(it *iter) float64 { return it.setup.Seconds() })
		put("explore_s", "s", func(it *iter) float64 { return it.explore.Seconds() })
		put("evals_per_s", "1/s", func(it *iter) float64 { return float64(it.evals) / it.call.Seconds() })
		put("alloc_bytes_per_eval", "B", func(it *iter) float64 { return float64(it.alloc) / float64(it.evals) })
		put("front_hv", "ratio", func(it *iter) float64 { return it.hv })
		m.line.Metrics["peak_rss_mb"] = metric{rssMB, "MiB"}
		return m, nil
	}

	// Traced run: per-layer medians over the traced iterations, the
	// share of each iteration no layer span covers, and each traced
	// iteration's wall time over its plain twin's.
	for _, l := range perLayer {
		if !l.derived {
			m.line.Metrics[l.name] = metric{median(collect(withSpans, func(it *iter) float64 { return it.layer[l.name] })), l.unit}
		}
	}
	var total, covered time.Duration
	for _, it := range withSpans {
		t, c := tr.childCover(it.root)
		total += t
		covered += c
	}
	var overhead []float64
	for k := range plain {
		overhead = append(overhead, (withSpans[k].setup+withSpans[k].explore).Seconds()/(plain[k].setup+plain[k].explore).Seconds()-1)
	}
	m.line.Metrics["trace_run.unattributed_frac"] = metric{1 - covered.Seconds()/total.Seconds(), "ratio"}
	m.line.Metrics["trace_run.overhead_frac"] = metric{median(overhead), "ratio"}
	m.traceFile = filepath.Join(out, "traces", fmt.Sprintf("%s-%d.json", w.name, b.seed))
	if err := os.MkdirAll(filepath.Dir(m.traceFile), 0o755); err != nil {
		return nil, err
	}
	return m, tr.writeChrome(m.traceFile)
}

// writeRecord stores the run's full record — host facts, both seeds,
// every iteration's timings and the metrics — beside the trace files.
func writeRecord(out, name string, b *bench, traced bool, m *measurement) error {
	rec := map[string]any{
		"workload":      name,
		"seed":          b.seed,
		"workload_seed": b.workloadSeed,
		"search_seed":   b.searchSeed,
		"scale":         b.scale,
		"traced":        traced,
		"samples":       m.samples,
		"host":          hostFacts(),
		"result":        m.line,
	}
	if m.traceFile != "" {
		rec["trace_file"] = m.traceFile
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-trace%t.json", name, b.seed, traced))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d iterations, record %s\n", name, b.seed, len(m.samples), path)
	return os.WriteFile(path, data, 0o644)
}

func collect(its []*iter, f func(*iter) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of p90/p99/p99.9 with at least ten samples
// beyond it, and that percentile; p50 when there are too few samples.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := 0.5
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(len(s))*(1-q) >= 10 {
			p = q
			break
		}
	}
	return s[min(int(p*float64(len(s))), len(s)-1)], p * 100
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// Command dmexplore runs the automated exploration of dynamic-memory
// allocator configurations for a workload on a target memory hierarchy,
// reduces the sweep to its Pareto-optimal set and emits CSV/Gnuplot
// reports — the end-to-end flow of the paper's tool.
//
// Examples:
//
//	dmexplore -workload easyport -space narrow -out results/
//	dmexplore -workload vtc -sample 2000 -space full
//	dmexplore -workload easyport -objectives energy,cycles
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/report"
	"dmexplore/internal/serve"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dmexplore:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dmexplore", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "easyport", "workload: "+strings.Join(workload.Names(), "|"))
		scale        = fs.Int("scale", 100, "workload scale in percent of the default trace length")
		seed         = fs.Uint64("seed", 1, "workload RNG seed")
		spaceKind    = fs.String("space", "narrow", "configuration space: narrow|full|auto (auto derives pools from the workload's profile)")
		spaceFile    = fs.String("spacefile", "", "JSON space specification file (overrides -space)")
		sample       = fs.Int("sample", 0, "profile only N sampled configurations (0 = exhaustive)")
		sampleSeed   = fs.Uint64("sample-seed", 1, "sampling RNG seed")
		strategy     = fs.String("strategy", "exhaustive", "search strategy: exhaustive|screen|evolve (-sample = screening size / population, -budget = total simulations)")
		budget       = fs.Int("budget", 0, "screen and evolve strategies: total simulation budget (0 = 4 × the screening size for screen, 16 generations for evolve)")
		objectives   = fs.String("objectives", "accesses,footprint", "comma-separated minimization objectives")
		hierName     = fs.String("hierarchy", "soc", "memory hierarchy: soc|soc3|flat")
		workers      = fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		outDir       = fs.String("out", "", "directory for CSV/Gnuplot reports (none when empty)")
		cachePath    = fs.String("cache", "", "result store file of configurations' metrics: resume interrupted sweeps and skip configurations an earlier run profiled")
		tracePath    = fs.String("trace", "", "replay a trace file instead of generating the workload")
		incremental  = fs.Bool("incremental", false, "partial re-evaluation: configurations sharing a fixed-pool signature replay only the ops that reach the general pool (bit-identical results)")
		quiet        = fs.Bool("quiet", false, "suppress progress output")
		metricsAddr  = fs.String("metrics-addr", "", "serve Prometheus /metrics, /healthz, expvar and pprof at this address, e.g. localhost:6060")
		traceOut     = fs.String("trace-out", "", "write the pipeline flight recorder as Chrome trace-event JSON (load in Perfetto) to this file")
		evalLatency  = fs.Duration("eval-latency", 0, "model a per-simulation backend latency, e.g. 2ms (cache/memo hits skip it)")
		submitURL    = fs.String("submit", "", "submit the job to a dmserve coordinator at this URL and follow its journal instead of running locally")
		islands      = fs.Int("islands", 1, "submit mode, evolve strategy: NSGA-II islands (shards), exchanging front members through the coordinator")
		migrateEvery = fs.Int("migrate-every", 0, "submit mode: generations between migrations (0 = default)")
		migrateK     = fs.Int("migrate-k", 0, "submit mode: immigrants per migration (0 = population/4)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(fs); err != nil {
		return err
	}

	if *submitURL != "" {
		spec := serve.JobSpec{
			Workload:      *workloadName,
			WorkloadSeed:  *seed,
			Scale:         *scale,
			Space:         *spaceKind,
			Hierarchy:     *hierName,
			Objectives:    splitObjectives(*objectives),
			Incremental:   *incremental,
			EvalLatencyMS: float64(*evalLatency) / float64(time.Millisecond),
		}
		if *strategy == "evolve" {
			spec.Strategy = "nsga2"
			pop, total := evolveSize(*sample, *budget)
			// dmexplore's -budget is the job total; the spec's budget is
			// per island, so the fleet spends the same total regardless of
			// how many islands split it.
			spec.Population = pop
			spec.Budget = total / *islands
			spec.Seed = *sampleSeed
			spec.Islands = *islands
			spec.MigrationEvery = *migrateEvery
			spec.MigrationK = *migrateK
		} else {
			spec.Strategy = "sweep"
			spec.Sample = *sample
			spec.SampleSeed = *sampleSeed
		}
		return runSubmit(out, *submitURL, spec, *outDir)
	}

	hier, err := memhier.Preset(*hierName)
	if err != nil {
		return err
	}
	workerN := *workers
	if workerN <= 0 {
		workerN = runtime.GOMAXPROCS(0)
	}
	// The flight recorder's raw spans are opt-in: every run counts its
	// stages in the collector's aggregates, and the overhead gate (make
	// bench-observe) prices the raw span writes. Created before
	// ingest/compile so those stages land spans too.
	var spans *span.Recorder
	if *traceOut != "" || *metricsAddr != "" {
		spans = span.NewRecorder(workerN, span.DefaultRingCapacity)
	}
	var tr *trace.Trace
	if *tracePath != "" {
		ingestStart := time.Now()
		tr, err = trace.ReadFile(*tracePath, workerN, nil)
		if err != nil {
			return fmt.Errorf("trace %s: %w", *tracePath, err)
		}
		spans.Coord().Since(span.StageTraceIngest, ingestStart, int64(tr.Len()))
	} else {
		gen, err := workload.New(*workloadName, *seed, *scale)
		if err != nil {
			return err
		}
		tr, err = gen.Generate()
		if err != nil {
			return err
		}
	}
	// Compile the trace once up front: every configuration the sweep
	// profiles replays the same compiled form, and compiling checks a
	// trace file before -space auto analyzes it.
	compileStart := time.Now()
	ct, err := trace.Compile(tr)
	if err != nil {
		if *tracePath != "" {
			return fmt.Errorf("trace %s: %w", *tracePath, err)
		}
		return err
	}
	spans.Coord().Since(span.StageCompile, compileStart, int64(tr.Len()))
	var space *core.Space
	if *spaceKind == "auto" && *spaceFile == "" {
		prof := trace.Analyze(tr)
		space, err = core.SuggestSpace(*workloadName+"-auto", prof, hier)
		if err != nil {
			return err
		}
	} else if *spaceFile != "" {
		f, err := os.Open(*spaceFile)
		if err != nil {
			return err
		}
		space, err = core.LoadSpaceSpec(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		space, err = core.WorkloadSpace(*workloadName, *spaceKind)
		if err != nil {
			return err
		}
	}
	objs := splitObjectives(*objectives)
	if len(objs) < 2 {
		return fmt.Errorf("need at least two objectives, got %q", *objectives)
	}

	fmt.Fprintf(out, "workload   %s (%d events)\n", tr.Name, tr.Len())
	fmt.Fprintf(out, "hierarchy  %s\n", hier)
	fmt.Fprintf(out, "space      %s: %d configurations", space.Name, space.Size())
	if *sample > 0 && *sample < space.Size() {
		fmt.Fprintf(out, " (sampling %d)", *sample)
	}
	fmt.Fprintln(out)

	// The store loads before the telemetry collector starts its clock,
	// so loading does not count as exploration time.
	var store *core.Store
	if *cachePath != "" {
		if store, err = core.OpenStore(*cachePath, core.DefaultPoolMemoBudgetBytes); err != nil {
			return err
		}
		fmt.Fprintf(out, "cache      %s (%d entries)\n", *cachePath, store.Len())
		defer func() {
			if err := store.Save(); err != nil {
				fmt.Fprintf(out, "warning: saving cache: %v\n", err)
			}
		}()
	}
	col := telemetry.NewCollector(workerN)
	runner := &core.Runner{Hierarchy: hier, Trace: tr, Compiled: ct, Workers: *workers, Telemetry: col, Incremental: *incremental, EvalLatency: *evalLatency, Spans: spans, Store: store}
	if store != nil {
		col.AddCacheStale(store.Stats().Stale)
	}
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, col)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "metrics    http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)\n", srv.Addr)
	}
	var journal *telemetry.Journal
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		journal, err = telemetry.CreateJournal(filepath.Join(*outDir, "journal.jsonl"))
		if err != nil {
			return err
		}
		defer journal.Close()
		// The journal is the sweep's flight recorder: one line per
		// configuration, appended as workers complete them, so an
		// interrupted run still explains itself.
		runner.Observer = func(res core.Result) {
			_ = journal.Record(res.JournalRecord())
		}
	}
	if !*quiet {
		runner.Progress = telemetry.NewProgress(out, col, 0).Update
	}

	start := time.Now()
	var results, feasible, front []core.Result
	// runSummary is run-summary.json: the finished run's digest or, when
	// interrupted, the sweep so far. Only a finished run reads the
	// results.
	runSummary := func(snap telemetry.Snapshot, elapsed time.Duration, interrupted bool) telemetry.RunSummary {
		sum := telemetry.RunSummary{
			Tool:        "dmexplore",
			Workload:    tr.Name,
			Space:       space.Name,
			Strategy:    *strategy,
			Objectives:  objs,
			ElapsedSec:  elapsed.Seconds(),
			Telemetry:   snap,
			Stages:      activeStages(spans),
			Interrupted: interrupted,
		}
		if interrupted {
			sum.Configurations = int(snap.Done())
		} else {
			sum.Configurations, sum.Feasible, sum.ParetoFront = len(results), len(feasible), len(front)
		}
		if journal != nil {
			sum.JournalRecords = journal.Len()
		}
		if runner.Store != nil {
			cs := runner.Store.Stats()
			sum.Cache = &telemetry.CacheSummary{
				Path:    *cachePath,
				Entries: runner.Store.Len(),
				Hits:    cs.Hits,
				Misses:  cs.Misses,
				Stale:   cs.Stale,
			}
		}
		return sum
	}
	// An interrupted sweep must still explain itself: on SIGINT/SIGTERM
	// flush the journal tail, write an Interrupted run summary and the
	// span trace, then exit 128+signal like a shell would. The Once makes
	// the normal completion path and the signal path mutually exclusive.
	var finalizeOnce sync.Once
	writeTrace := func() {
		if *traceOut == "" || spans == nil {
			return
		}
		if err := spans.WriteTraceFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "dmexplore: writing trace: %v\n", err)
		}
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer func() {
		// Stop guarantees no further sends, so the close below cleanly
		// unblocks the handler goroutine when run returns normally.
		signal.Stop(sigc)
		close(sigc)
	}()
	go func() {
		sig, ok := <-sigc
		if !ok {
			return
		}
		finalizeOnce.Do(func() {
			if journal != nil {
				_ = journal.Flush()
			}
			if *outDir != "" {
				sum := runSummary(col.Snapshot(), time.Since(start), true)
				_ = telemetry.WriteRunSummary(filepath.Join(*outDir, "run-summary.json"), sum)
			}
			writeTrace()
			fmt.Fprintf(os.Stderr, "dmexplore: interrupted (%v), journal flushed\n", sig)
		})
		code := 130
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()
	switch {
	case *strategy == "screen":
		screen := *sample
		if screen <= 0 {
			screen = 64
		}
		total := *budget
		if total <= 0 {
			total = 4 * screen
		}
		results, err = runner.ScreenAndRefine(space, objs, screen, total, *sampleSeed)
	case *strategy == "evolve":
		pop, total := evolveSize(*sample, *budget)
		results, err = runner.EvolveIsland(space, objs, core.IslandOptions{EvolveOptions: core.EvolveOptions{
			Population: pop, Budget: total, Seed: *sampleSeed,
		}})
	case *sample > 0:
		results, err = runner.Sample(space, *sample, *sampleSeed)
	default:
		results, err = runner.Explore(space)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	snap := col.Snapshot()

	feasible = core.Feasible(results)
	front, points, err := core.ParetoSet(feasible, objs)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "\nexplored %d configurations in %v (%d feasible)\n",
		len(results), elapsed.Round(time.Millisecond), len(feasible))
	fmt.Fprintf(out, "telemetry  %s\n", snap)
	if err := report.WriteSummary(out, feasible, front, points, objs); err != nil {
		return err
	}
	if spans != nil {
		fmt.Fprintln(out, "\npipeline stages (spans, total time):")
		for _, st := range activeStages(spans) {
			fmt.Fprintf(out, "  %-16s %8d %10.3fs\n", st.Name, st.Count, st.Seconds)
		}
		if d := spans.Dropped(); d > 0 {
			fmt.Fprintf(out, "  (%d spans dropped: per-worker ring wrapped)\n", d)
		}
	}

	if *outDir != "" {
		if err := report.WriteFile(filepath.Join(*outDir, "results.csv"), func(w io.Writer) error {
			return report.WriteResultsCSV(w, space.AxisLabels(), results)
		}); err != nil {
			return err
		}
		if err := report.WriteReports(*outDir, space.Name, space.AxisLabels(), feasible, front, objs); err != nil {
			return err
		}
	}
	var finErr error
	finalizeOnce.Do(func() {
		if *outDir != "" {
			sum := runSummary(snap, elapsed, false)
			if err := journal.Close(); err != nil {
				finErr = fmt.Errorf("closing journal: %w", err)
				return
			}
			if finErr = telemetry.WriteRunSummary(filepath.Join(*outDir, "run-summary.json"), sum); finErr != nil {
				return
			}
			fmt.Fprintf(out, "\nreports written to %s\n", *outDir)
		}
		writeTrace()
	})
	if finErr != nil {
		return finErr
	}
	if *traceOut != "" {
		fmt.Fprintf(out, "trace      %s (load at https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
	return nil
}

// validateFlags rejects contradictory flag combinations up front with an
// error naming the conflict, instead of silently ignoring one side.
// Only flags the user explicitly set (fs.Visit) count — defaults never
// conflict.
func validateFlags(fs *flag.FlagSet) error {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	val := func(name string) string { return fs.Lookup(name).Value.String() }

	strategy := val("strategy")
	switch strategy {
	case "exhaustive", "screen", "evolve":
	default:
		return fmt.Errorf("unknown strategy %q (use exhaustive|screen|evolve)", strategy)
	}
	if set["budget"] && strategy == "exhaustive" {
		return fmt.Errorf("-budget has no effect with -strategy exhaustive (use screen|evolve)")
	}
	if d, err := time.ParseDuration(val("eval-latency")); err == nil && d < 0 {
		return fmt.Errorf("-eval-latency must be >= 0, got %v", d)
	}
	seen := map[string]bool{}
	for _, obj := range splitObjectives(val("objectives")) {
		if seen[obj] {
			return fmt.Errorf("duplicate objective %q in -objectives", obj)
		}
		seen[obj] = true
	}
	if set["submit"] {
		for _, name := range []string{"trace", "spacefile", "cache", "metrics-addr", "trace-out", "workers"} {
			if set[name] {
				return fmt.Errorf("-%s is local-only and cannot be combined with -submit", name)
			}
		}
		if strategy != "exhaustive" && strategy != "evolve" {
			return fmt.Errorf("-submit supports -strategy exhaustive|evolve, not %q", strategy)
		}
		if val("space") == "auto" {
			return fmt.Errorf("-space auto is local-only; submitted jobs name a fixed space (narrow|full)")
		}
		if set["islands"] {
			if n, err := strconv.Atoi(val("islands")); err != nil || n < 1 {
				return fmt.Errorf("-islands must be >= 1, got %s", val("islands"))
			}
			if strategy != "evolve" {
				return fmt.Errorf("-islands requires -strategy evolve (sweeps shard by index range, not by island)")
			}
		}
	} else {
		for _, name := range []string{"islands", "migrate-every", "migrate-k"} {
			if set[name] {
				return fmt.Errorf("-%s only applies with -submit (local runs are single-island)", name)
			}
		}
	}
	return nil
}

// splitObjectives parses the -objectives list.
func splitObjectives(s string) []string {
	objs := strings.Split(s, ",")
	for i := range objs {
		objs[i] = strings.TrimSpace(objs[i])
	}
	return objs
}

// runSubmit posts the job to a dmserve coordinator, follows its journal
// (reconnecting across coordinator restarts) and prints the final front.
// With -out, the streamed records land in journal.jsonl exactly as a
// local run would write them — plus their shard/island/worker stamps.
func runSubmit(out io.Writer, base string, spec serve.JobSpec, outDir string) error {
	client := &serve.Client{Base: base}
	id, err := client.Submit(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "submitted  job %s to %s (%s on %s/%s)\n", id, base, spec.Strategy, spec.Workload, spec.Space)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var journal *telemetry.Journal
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		journal, err = telemetry.CreateJournal(filepath.Join(outDir, "journal.jsonl"))
		if err != nil {
			return err
		}
		defer journal.Close()
	}
	start := time.Now()
	st, err := client.FollowJournal(ctx, id, 0, func(rec telemetry.Record) {
		if journal != nil {
			_ = journal.Record(rec)
		}
	})
	if err != nil {
		return err
	}
	if st.State == "failed" {
		return fmt.Errorf("job %s failed: %s", id, st.Error)
	}
	fmt.Fprintf(out, "job %s done in %v: %d configurations, %d journal records\n",
		id, time.Since(start).Round(time.Millisecond), st.Results, st.Records)
	fmt.Fprintf(out, "\nPareto-optimal configurations: %d\n", len(st.Front))
	for _, p := range st.Front {
		fmt.Fprintf(out, "  #%-6d %-60s", p.Index, strings.Join(p.Labels, ","))
		for i, obj := range spec.Objectives {
			if i < len(p.Values) {
				fmt.Fprintf(out, " %s=%.4g", obj, p.Values[i])
			}
		}
		fmt.Fprintln(out)
	}
	if journal != nil {
		fmt.Fprintf(out, "\njournal written to %s\n", filepath.Join(outDir, "journal.jsonl"))
	}
	return nil
}

// activeStages reduces the flight recorder to the stages that actually
// ran — the run summary's per-stage time breakdown.
func activeStages(rec *span.Recorder) []span.StageSnapshot {
	if rec == nil {
		return nil
	}
	var out []span.StageSnapshot
	for _, st := range rec.Snapshot() {
		if st.Count > 0 {
			out = append(out, st)
		}
	}
	return out
}

// evolveSize reads -sample and -budget for -strategy evolve: the
// population (default core.DefaultPopulation, rounded up to even) and
// the total simulation budget (default core.DefaultGenerations
// generations' worth).
func evolveSize(sample, budget int) (pop, total int) {
	pop = sample
	if pop <= 0 {
		pop = core.DefaultPopulation
	}
	if pop%2 != 0 {
		pop++
	}
	total = budget
	if total <= 0 {
		total = core.DefaultGenerations * pop
	}
	return pop, total
}

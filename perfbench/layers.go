package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/pareto"
	"dmexplore/internal/profile"
	"dmexplore/internal/report"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// layerMetric is one per-layer metric of the traced run. README.md
// gives each one's definition and the end-to-end metric it should move.
type layerMetric struct {
	name, unit string
	derived    bool // computed by the harness from the whole run, not per iteration
}

var perLayer = []layerMetric{
	{name: "workload.generate_s", unit: "s"},
	{name: "trace.compile_s", unit: "s"},
	{name: "trace.compile_events_per_s", unit: "1/s"},
	{name: "trace.read_mb_per_s", unit: "MB/s"},
	{name: "profile.full_sims", unit: "count"},
	{name: "profile.full_sim_ms_p50", unit: "ms"},
	{name: "profile.full_sim_ms_tail", unit: "ms"},
	{name: "profile.full_sim_tail_pct", unit: "%"},
	{name: "profile.full_sim_events_per_s", unit: "1/s"},
	{name: "profile.partial_sims", unit: "count"},
	{name: "profile.partial_sim_ms_p50", unit: "ms"},
	{name: "profile.partition_builds", unit: "count"},
	{name: "profile.partition_build_s", unit: "s"},
	{name: "profile.composes", unit: "count"},
	{name: "profile.compose_us_p50", unit: "us"},
	{name: "profile.log_write_mb_per_s", unit: "MB/s"},
	{name: "profile.log_parse_mb_per_s", unit: "MB/s"},
	{name: "core.memo_hits", unit: "count"},
	{name: "core.compose_frac", unit: "ratio"},
	{name: "core.events_skipped_frac", unit: "ratio"},
	{name: "core.worker_utilization", unit: "ratio"},
	{name: "core.waves", unit: "count"},
	{name: "core.wave_ms_p50", unit: "ms"},
	{name: "core.coord_s", unit: "s"},
	{name: "core.partition_cache_mb", unit: "MiB"},
	{name: "core.pool_memo_mb", unit: "MiB"},
	{name: "pareto.front_s", unit: "s"},
	{name: "report.write_s", unit: "s"},
	{name: "telemetry.journal_write_s", unit: "s"},
	{name: "telemetry.journal_bytes", unit: "B"},
	{name: "serve.rpc.lease.count", unit: "count"},
	{name: "serve.rpc.lease.p50_ms", unit: "ms"},
	{name: "serve.rpc.heartbeat.count", unit: "count"},
	{name: "serve.rpc.heartbeat.p50_ms", unit: "ms"},
	{name: "serve.rpc.results.count", unit: "count"},
	{name: "serve.rpc.results.p50_ms", unit: "ms"},
	{name: "serve.rpc.migrate.count", unit: "count"},
	{name: "serve.rpc.migrate.p50_ms", unit: "ms"},
	{name: "serve.rpc.status.count", unit: "count"},
	{name: "serve.rpc.status.p50_ms", unit: "ms"},
	{name: "serve.migrate_wait_s", unit: "s"},
	{name: "trace_run.unattributed_frac", unit: "ratio", derived: true},
	{name: "trace_run.overhead_frac", unit: "ratio", derived: true},
}

// objectives are the front's axes on every workload.
var objectives = []string{profile.ObjAccesses, profile.ObjFootprint}

// hvRef is each workload's fixed hypervolume reference point (accesses,
// footprint bytes), beyond every front point seen at full scale: front_hv
// is the area the front dominates inside the box from the origin to the
// reference point, over the box's area. The Easyport workloads share one.
var hvRef = map[string][2]float64{
	"sweep-vtc":     {2.5e6, 1.6e5},
	"nsga-easyport": {3e6, 1.5e6},
	"profile-log":   {3e6, 1.5e6},
	"serve-islands": {3e6, 1.5e6},
}

// genTrace generates the named workload's trace and compiles it — the
// set-up every simulating workload starts with.
func genTrace(b *bench, t *tracer, it *iter, name string, pct int) (*trace.Trace, *trace.Compiled, error) {
	var tr *trace.Trace
	d, err := t.call("workload.generate", it.root, func() error {
		gen, err := workload.New(name, b.workloadSeed, b.traceScale(pct))
		if err != nil {
			return err
		}
		tr, err = gen.Generate()
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	it.layer["workload.generate_s"] = d.Seconds()
	var ct *trace.Compiled
	d, err = t.call("trace.compile", it.root, func() error {
		var err error
		ct, err = trace.Compile(tr)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	it.layer["trace.compile_s"] = d.Seconds()
	it.layer["trace.compile_events_per_s"] = float64(ct.Len()) / d.Seconds()
	return tr, ct, nil
}

// journal is an iteration's run journal. record is safe for concurrent
// use and accumulates the time spent inside the journal layer.
type journal struct {
	j     *telemetry.Journal
	path  string
	nanos atomic.Int64

	mu  sync.Mutex
	err error
}

func openJournal(b *bench, t *tracer, it *iter) (*journal, error) {
	jr := &journal{path: filepath.Join(b.outDir, "journal.jsonl")}
	d, err := t.call("telemetry.journal_open", it.root, func() error {
		var err error
		jr.j, err = telemetry.CreateJournal(jr.path)
		return err
	})
	jr.nanos.Add(int64(d))
	return jr, err
}

func (jr *journal) record(rec telemetry.Record) {
	start := time.Now()
	err := jr.j.Record(rec)
	jr.nanos.Add(int64(time.Since(start)))
	if err != nil {
		jr.mu.Lock()
		if jr.err == nil {
			jr.err = err
		}
		jr.mu.Unlock()
	}
}

func (jr *journal) observe(res core.Result) { jr.record(res.JournalRecord()) }

// close flushes the journal and reports the journal layer's metrics.
func (jr *journal) close(t *tracer, it *iter) error {
	d, err := t.call("telemetry.journal_close", it.root, jr.j.Close)
	jr.nanos.Add(int64(d))
	if err == nil {
		err = jr.err
	}
	if err != nil {
		return err
	}
	fi, err := os.Stat(jr.path)
	if err != nil {
		return err
	}
	it.layer["telemetry.journal_write_s"] = time.Duration(jr.nanos.Load()).Seconds()
	it.layer["telemetry.journal_bytes"] = float64(fi.Size())
	return nil
}

// publish extracts the front and writes the reports: the end of every
// workload's exploration.
func publish(b *bench, t *tracer, it *iter, wl string, axes []string, results []core.Result) error {
	var front []core.Result
	var pts []pareto.Point
	d, err := t.call("pareto.front", it.root, func() error {
		var err error
		front, pts, err = core.ParetoSet(core.Feasible(results), objectives)
		return err
	})
	if err != nil {
		return err
	}
	it.layer["pareto.front_s"] = d.Seconds()
	ref := hvRef[wl]
	it.hv = pareto.Hypervolume2D(pts, ref) / (ref[0] * ref[1])
	d, err = t.call("report.write", it.root, func() error {
		return writeReports(b.outDir, axes, results, front)
	})
	it.layer["report.write_s"] = d.Seconds()
	return err
}

// writeReports writes the CSV of every result and the gnuplot front
// plot, as dmexplore does.
func writeReports(dir string, axes []string, results, front []core.Result) error {
	var csv, dat, plt bytes.Buffer
	if err := report.WriteResultsCSV(&csv, axes, results); err != nil {
		return err
	}
	if err := report.WriteParetoDat(&dat, results, front, objectives[0], objectives[1]); err != nil {
		return err
	}
	datPath := filepath.Join(dir, "pareto.dat")
	if err := report.WriteGnuplotScript(&plt, datPath, "front", objectives[0], objectives[1]); err != nil {
		return err
	}
	for name, buf := range map[string]*bytes.Buffer{"results.csv": &csv, "pareto.dat": &dat, "pareto.plt": &plt} {
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// memDelta measures the Go heap bytes allocated between start and stop.
type memDelta struct{ before uint64 }

func (m *memDelta) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.before = ms.TotalAlloc
}

func (m *memDelta) stop() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - m.before
}

// resultLayers derives the evaluation-tier metrics from the results the
// public API returns: which tier served each one and how long it took.
// events is the trace length; workers the simulation workers.
func resultLayers(it *iter, results []core.Result, events, workers int) {
	var full, partial, composed []float64
	var memo, skipped, busy float64
	for _, r := range results {
		busy += r.Duration.Seconds()
		ms := float64(r.Duration) / 1e6
		skipped += float64(r.EventsSkipped)
		switch {
		case r.MemoHit || r.CacheHit:
			memo++
		case r.Composed:
			composed = append(composed, ms)
		case r.Incremental:
			partial = append(partial, ms)
		case r.Err == nil:
			full = append(full, ms)
		}
	}
	l := it.layer
	l["profile.full_sims"] = float64(len(full))
	l["profile.full_sim_ms_p50"] = median(full)
	l["profile.full_sim_ms_tail"], l["profile.full_sim_tail_pct"] = tail(full)
	if sum := sumOf(full); sum > 0 {
		l["profile.full_sim_events_per_s"] = float64(len(full)*events) / (sum / 1e3)
	}
	l["profile.partial_sims"] = float64(len(partial))
	l["profile.partial_sim_ms_p50"] = median(partial)
	l["profile.composes"] = float64(len(composed))
	l["profile.compose_us_p50"] = median(composed) * 1e3
	l["core.memo_hits"] = memo
	if n := float64(len(results)); n > 0 {
		l["core.compose_frac"] = float64(len(composed)) / n
		l["core.events_skipped_frac"] = skipped / (n * float64(events))
	}
	if it.call > 0 {
		l["core.worker_utilization"] = busy / (it.call.Seconds() * float64(workers))
	}
}

// observe attaches a telemetry collector and span recorder to a traced
// iteration's runner; spanLayers reads them back afterwards.
func observe(r *core.Runner, t *tracer, workers int) {
	if t == nil {
		return
	}
	r.Telemetry = telemetry.NewCollector(workers)
	r.Spans = span.NewRecorder(workers, span.DefaultRingCapacity)
}

// spanLayers reads partition builds and evaluation waves from the
// collector and recorder observe attached: waves are timed one by one
// from the recorder's exported trace.
func spanLayers(it *iter, r *core.Runner) error {
	if r.Spans == nil {
		return nil
	}
	snap := r.Telemetry.Snapshot()
	it.layer["profile.partition_builds"] = float64(snap.PartitionBuilds)
	for _, st := range r.Spans.Snapshot() {
		if st.Stage == span.StagePartitionBuild {
			it.layer["profile.partition_build_s"] = st.Seconds
		}
	}
	var buf bytes.Buffer
	if err := r.Spans.WriteTrace(&buf); err != nil {
		return err
	}
	events, _, err := span.ReadTrace(buf.Bytes())
	if err != nil {
		return err
	}
	var waves []float64
	for _, e := range events {
		if e.Name == span.StageBatchWave.String() {
			waves = append(waves, e.Dur/1e3)
		}
	}
	it.layer["core.waves"] = float64(len(waves))
	it.layer["core.wave_ms_p50"] = median(waves)
	it.layer["core.coord_s"] = math.Max(0, it.call.Seconds()-sumOf(waves)/1e3)
	return nil
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// fingerprint hashes every result's simulated objectives in result
// order; equal inputs must give equal fingerprints.
func fingerprint(results []core.Result) string {
	h := fnv.New64a()
	for _, r := range results {
		fmt.Fprintf(h, "%d;", r.Index)
		if m := r.Metrics; m != nil {
			fmt.Fprintf(h, "%d,%d,%x,%d,%d;", m.Accesses, m.FootprintBytes,
				math.Float64bits(m.EnergyNJ), m.Cycles, m.Failures)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sameMetrics reports whether two runs' simulated statistics agree bit
// for bit. Per-layer counters are compared when both sides carry them.
func sameMetrics(a, b *profile.Metrics) bool {
	if a == nil || b == nil {
		return false
	}
	if a.Accesses != b.Accesses || a.FootprintBytes != b.FootprintBytes ||
		math.Float64bits(a.EnergyNJ) != math.Float64bits(b.EnergyNJ) ||
		a.Cycles != b.Cycles || a.Failures != b.Failures {
		return false
	}
	if len(a.PerLayer) == 0 || len(b.PerLayer) == 0 {
		return true
	}
	if len(a.PerLayer) != len(b.PerLayer) || a.Mallocs != b.Mallocs || a.Frees != b.Frees {
		return false
	}
	for i := range a.PerLayer {
		if a.PerLayer[i] != b.PerLayer[i] {
			return false
		}
	}
	return true
}

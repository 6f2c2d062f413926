package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"dmexplore/internal/stats"
	"dmexplore/internal/telemetry/span"
)

// Prometheus text-format (0.0.4) exposition of the run's telemetry. The
// metric names are a stable contract — dashboards and the future
// coordinator/worker service scrape them, and per-island deployments
// will add labels to these same names — so renaming one is a breaking
// change, exactly like a span stage name.
//
// Every Snapshot field maps to a metric:
//
//	dmexplore_workers                       Workers
//	dmexplore_elapsed_seconds               ElapsedSec
//	dmexplore_sims_total                    Sims
//	dmexplore_sim_seconds_total             SimSecTotal
//	dmexplore_events_replayed_total         Events
//	dmexplore_events_per_second             EventsPerSec
//	dmexplore_partial_sims_total            PartialSims
//	dmexplore_events_skipped_total          EventsSkipped
//	dmexplore_partition_builds_total        PartitionBuilds
//	dmexplore_composed_evals_total          ComposedEvals
//	dmexplore_cache_hits_total              CacheHits
//	dmexplore_cache_misses_total            CacheMisses
//	dmexplore_cache_stale_total             CacheStale
//	dmexplore_memo_hits_total               MemoHits
//	dmexplore_errors_total{kind=...}        ErrorsConfig, ErrorsSim
//	dmexplore_worker_utilization            Utilization
//	dmexplore_sim_latency_quantile_seconds  SimP50Ms, SimP90Ms, SimP99Ms
//	dmexplore_sim_latency_seconds           LatencyBuckets (histogram)
//
// plus one histogram per pipeline stage:
//
//	dmexplore_stage_duration_seconds{stage=...}  span aggregates

// WritePrometheus writes the snapshot (and, when stages is non-nil, the
// per-stage histograms of the collector's recorder) in Prometheus text
// format.
func WritePrometheus(w io.Writer, s Snapshot, stages []span.StageSnapshot) error {
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promFloat(v))
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("dmexplore_workers", "Worker pool size.", float64(s.Workers))
	gauge("dmexplore_elapsed_seconds", "Wall time since the run's clock started.", s.ElapsedSec)
	counter("dmexplore_sims_total", "Simulations executed (full and partial).", s.Sims)
	gauge("dmexplore_sim_seconds_total", "Total wall time inside simulations and partition builds.", s.SimSecTotal)
	counter("dmexplore_events_replayed_total", "Trace events replayed.", s.Events)
	gauge("dmexplore_events_per_second", "Replay throughput over the run so far.", s.EventsPerSec)
	counter("dmexplore_partial_sims_total", "Simulations served by the incremental partial-replay path.", s.PartialSims)
	counter("dmexplore_events_skipped_total", "Trace events partial sims avoided replaying.", s.EventsSkipped)
	counter("dmexplore_partition_builds_total", "Invariant-partition replays (one per fixed-pool signature).", s.PartitionBuilds)
	counter("dmexplore_composed_evals_total", "Evaluations composed from the pool-run memo (no simulation).", s.ComposedEvals)
	counter("dmexplore_cache_hits_total", "Configurations served from the results cache.", s.CacheHits)
	counter("dmexplore_cache_misses_total", "Results-cache lookups that found nothing.", s.CacheMisses)
	counter("dmexplore_cache_stale_total", "Stale results-cache entries dropped or superseded.", s.CacheStale)
	counter("dmexplore_memo_hits_total", "Configurations served from the in-run duplicate memo.", s.MemoHits)

	fmt.Fprintf(&b, "# HELP dmexplore_errors_total Evaluation errors by kind.\n# TYPE dmexplore_errors_total counter\n")
	fmt.Fprintf(&b, "dmexplore_errors_total{kind=\"config\"} %d\n", s.ErrorsConfig)
	fmt.Fprintf(&b, "dmexplore_errors_total{kind=\"sim\"} %d\n", s.ErrorsSim)

	gauge("dmexplore_worker_utilization", "Busy worker time over available worker time, 0..1.", s.Utilization)

	fmt.Fprintf(&b, "# HELP dmexplore_sim_latency_quantile_seconds Simulation latency quantile upper bounds (exact to one power of two).\n# TYPE dmexplore_sim_latency_quantile_seconds gauge\n")
	for _, q := range []struct {
		q string
		v float64
	}{{"0.5", s.SimP50Ms}, {"0.9", s.SimP90Ms}, {"0.99", s.SimP99Ms}} {
		fmt.Fprintf(&b, "dmexplore_sim_latency_quantile_seconds{quantile=%q} %s\n", q.q, promFloat(q.v/1e3))
	}

	writeHistogram(&b, "dmexplore_sim_latency_seconds",
		"Simulation latency histogram (log2 buckets).", "", s.LatencyBuckets, s.SimSecTotal)

	if stages != nil {
		fmt.Fprintf(&b, "# HELP dmexplore_stage_duration_seconds Flight-recorder span durations per pipeline stage (log2 buckets).\n# TYPE dmexplore_stage_duration_seconds histogram\n")
		for _, st := range stages {
			writeHistogram(&b, "dmexplore_stage_duration_seconds", "", st.Name, st.Buckets, st.Seconds)
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram emits one cumulative histogram from log2 bucket counts.
// Buckets with no new observations are elided (cumulative semantics make
// that valid exposition); the +Inf bucket, _sum and _count always
// appear. stage, when non-empty, labels the series; help, when
// non-empty, emits the HELP/TYPE header (stage-labelled series share one
// header written by the caller).
func writeHistogram(b *strings.Builder, name, help, stage string, buckets []uint64, sumSeconds float64) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	labels := func(le string) string {
		if stage == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{stage=%q,le=%q}", stage, le)
	}
	suffix := ""
	if stage != "" {
		suffix = fmt.Sprintf("{stage=%q}", stage)
	}
	var cum uint64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		cum += c
		le := promFloat(float64(stats.Log2BucketHi(i)) / 1e9)
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labels(le), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labels("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, promFloat(sumSeconds))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, cum)
}

// promFloat renders a float the way Prometheus expects: shortest exact
// decimal, no exponent surprises for common values.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromSample is one labelled observation of a metric — the unit the
// coordinator's per-worker / per-island exposition is built from.
type PromSample struct {
	Labels string // rendered label set, e.g. `worker="w1",island="2"` (no braces)
	Value  float64
}

// WritePromSeries emits one metric family with any number of labelled
// samples, HELP/TYPE header first. typ is "gauge" or "counter". The
// coordinator uses it for dmserve_* families whose cardinality (workers,
// islands, jobs) is only known at scrape time.
func WritePromSeries(b *strings.Builder, name, typ, help string, samples []PromSample) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		if s.Labels == "" {
			fmt.Fprintf(b, "%s %s\n", name, promFloat(s.Value))
		} else {
			fmt.Fprintf(b, "%s{%s} %s\n", name, s.Labels, promFloat(s.Value))
		}
	}
}

// PromLabel renders one label pair for a PromSample label set.
func PromLabel(key, value string) string {
	return fmt.Sprintf("%s=%q", key, value)
}

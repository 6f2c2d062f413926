package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dmexplore/internal/stats"
	"dmexplore/internal/telemetry/span"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// fixedSnapshot exercises every Snapshot field with deterministic
// values, so the exposition body is byte-stable.
func fixedSnapshot() Snapshot {
	buckets := make([]uint64, stats.NumLog2Buckets)
	buckets[stats.Log2Bucket(int64(500*time.Microsecond))] = 40
	buckets[stats.Log2Bucket(int64(2*time.Millisecond))] = 9
	buckets[stats.Log2Bucket(int64(40*time.Millisecond))] = 1
	return Snapshot{
		Workers: 4, ElapsedSec: 12.5,
		Sims: 50, SimSecTotal: 0.9, Events: 1200000, EventsPerSec: 96000,
		PartialSims: 10, EventsSkipped: 400000, PartitionBuilds: 3,
		CacheHits: 7, CacheMisses: 43, CacheStale: 1, MemoHits: 5,
		ErrorsConfig: 2, ErrorsSim: 1,
		Utilization: 0.82,
		SimP50Ms:    0.5, SimP90Ms: 2, SimP99Ms: 40,
		LatencyBuckets: buckets,
	}
}

func fixedStages() []span.StageSnapshot {
	mk := func(counts map[time.Duration]uint64) []uint64 {
		b := make([]uint64, stats.NumLog2Buckets)
		for d, c := range counts {
			b[stats.Log2Bucket(int64(d))] = c
		}
		return b
	}
	return []span.StageSnapshot{
		{Name: "full-sim", Count: 40, Seconds: 0.8,
			Buckets: mk(map[time.Duration]uint64{500 * time.Microsecond: 39, 40 * time.Millisecond: 1})},
		{Name: "cache-probe", Count: 50, Seconds: 0.0005,
			Buckets: mk(map[time.Duration]uint64{8 * time.Microsecond: 50})},
		{Name: "batch-wave", Count: 6, Seconds: 0.88,
			Buckets: mk(map[time.Duration]uint64{130 * time.Millisecond: 6})},
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, fixedSnapshot(), fixedStages()); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/telemetry -run Golden -update)", err)
	}
	if got != string(want) {
		t.Fatalf("exposition body drifted from %s — metric names are a stable contract.\ngot:\n%s", golden, got)
	}
}

// TestWritePrometheusCoversSnapshot checks the contract directly: every
// Snapshot field has a metric, and the body is well-formed text format.
func TestWritePrometheusCoversSnapshot(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, fixedSnapshot(), fixedStages()); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, name := range []string{
		"dmexplore_workers 4",
		"dmexplore_elapsed_seconds 12.5",
		"dmexplore_sims_total 50",
		"dmexplore_sim_seconds_total 0.9",
		"dmexplore_events_replayed_total 1200000",
		"dmexplore_events_per_second 96000",
		"dmexplore_partial_sims_total 10",
		"dmexplore_events_skipped_total 400000",
		"dmexplore_partition_builds_total 3",
		"dmexplore_cache_hits_total 7",
		"dmexplore_cache_misses_total 43",
		"dmexplore_cache_stale_total 1",
		"dmexplore_memo_hits_total 5",
		`dmexplore_errors_total{kind="config"} 2`,
		`dmexplore_errors_total{kind="sim"} 1`,
		"dmexplore_worker_utilization 0.82",
		`dmexplore_sim_latency_quantile_seconds{quantile="0.5"} 0.0005`,
		`dmexplore_sim_latency_quantile_seconds{quantile="0.9"} 0.002`,
		`dmexplore_sim_latency_quantile_seconds{quantile="0.99"} 0.04`,
		`dmexplore_sim_latency_seconds_bucket{le="+Inf"} 50`,
		"dmexplore_sim_latency_seconds_sum 0.9",
		"dmexplore_sim_latency_seconds_count 50",
		`dmexplore_stage_duration_seconds_bucket{stage="full-sim",le="+Inf"} 40`,
		`dmexplore_stage_duration_seconds_count{stage="cache-probe"} 50`,
		`dmexplore_stage_duration_seconds_sum{stage="batch-wave"} 0.88`,
	} {
		if !strings.Contains(body, name+"\n") {
			t.Errorf("exposition missing %q", name)
		}
	}

	// Histogram buckets must be cumulative and end in +Inf == _count.
	line := regexp.MustCompile(`^[a-z0-9_]+(\{[^}]*\})? -?[0-9]`)
	for _, l := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(l, "# HELP ") || strings.HasPrefix(l, "# TYPE ") {
			continue
		}
		if !line.MatchString(l) {
			t.Errorf("malformed exposition line %q", l)
		}
	}

	// Without a flight recorder the stage family is absent entirely.
	var nb strings.Builder
	if err := WritePrometheus(&nb, fixedSnapshot(), nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(nb.String(), "dmexplore_stage_duration_seconds") {
		t.Error("stage histograms emitted without a recorder")
	}
}

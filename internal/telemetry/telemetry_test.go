package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dmexplore/internal/telemetry/span"
)

// TestSnapshotMergesShards records into every worker's shard and ring and
// requires the snapshot to merge them: the simulation counters, time,
// events and latency from the full-sim, partial-sim and partition-build
// rows, the cache counts from the cache-probe row's count and hit sum,
// and the rest from the shards.
func TestSnapshotMergesShards(t *testing.T) {
	col := NewCollector(4)
	rec := col.Spans()
	for w := 0; w < 4; w++ {
		ring := rec.Ring(w)
		ring.Record(span.StageFullSim, 0, 2*time.Millisecond, 100)
		hit := int64(0)
		if w%2 == 0 {
			hit = 1
		}
		ring.Record(span.StageCacheProbe, 0, time.Microsecond, hit)
		col.Shard(w).AddBusy(3 * time.Millisecond)
	}
	ring := rec.Ring(1)
	ring.Record(span.StagePartitionBuild, 0, 2*time.Millisecond, 100)
	ring.Record(span.StagePartialSim, 0, 2*time.Millisecond, 10)
	ring.Record(span.StageCompose, 0, time.Microsecond, 10)
	col.Shard(1).AddSkipped(90 + 100)
	rec.Coord().Record(span.StageBatchWave, 0, 10*time.Millisecond, 7) // counts nothing
	col.Shard(1).MemoHit()
	col.Shard(2).ConfigError()
	col.Shard(3).SimError()
	col.AddCacheStale(5)
	col.start = col.start.Add(-time.Second) // pretend a second elapsed

	s := col.Snapshot()
	if s.Workers != 4 || s.Sims != 5 || s.Events != 510 {
		t.Fatalf("merged counts: %+v", s)
	}
	if s.PartialSims != 1 || s.PartitionBuilds != 1 || s.ComposedEvals != 1 || s.EventsSkipped != 190 {
		t.Fatalf("incremental counts: %+v", s)
	}
	if s.CacheHits != 2 || s.CacheMisses != 2 || s.MemoHits != 1 || s.CacheStale != 5 {
		t.Fatalf("cache counts: %+v", s)
	}
	if s.ErrorsConfig != 1 || s.ErrorsSim != 1 {
		t.Fatalf("error counts: %+v", s)
	}
	if got := s.CacheHitRate(); got != 0.5 {
		t.Fatalf("hit rate %v", got)
	}
	if s.Done() != 5+2+1+1 {
		t.Fatalf("done %d", s.Done())
	}
	if s.SimSecTotal < 0.012-1e-9 || s.SimSecTotal > 0.013 {
		t.Fatalf("sim seconds %v", s.SimSecTotal)
	}
	// 2ms lands in a log2 bucket whose upper bound is < 4ms; every
	// quantile of six identical observations answers that bucket.
	if s.SimP50Ms <= 0 || s.SimP50Ms > 4 || s.SimP50Ms != s.SimP99Ms {
		t.Fatalf("latency quantiles: p50=%v p99=%v", s.SimP50Ms, s.SimP99Ms)
	}
	if s.Utilization <= 0 || s.Utilization > 1 {
		t.Fatalf("utilization %v", s.Utilization)
	}
	if str := s.String(); !strings.Contains(str, "5 sims") || !strings.Contains(str, "cache 50% hit") {
		t.Fatalf("summary line: %q", str)
	}
}

// TestSnapshotUnderConcurrentWorkers hammers every ring and shard from
// its own goroutine while a reader snapshots continuously — the -race
// guard for the lock-free recording path. No snapshot taken mid-run may
// count more cache hits than probes.
func TestSnapshotUnderConcurrentWorkers(t *testing.T) {
	const workers, perWorker = 8, 2000
	col := NewCollector(workers)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				if s := col.Snapshot(); s.CacheMisses > workers*perWorker {
					t.Errorf("mid-run snapshot counts more hits than probes: %+v", s)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ring := col.Spans().Ring(w)
			for i := 0; i < perWorker; i++ {
				ring.Record(span.StageFullSim, 0, time.Duration(i%37)*time.Microsecond, 10)
				hit := int64(0)
				if i%3 == 0 {
					hit = 1
				}
				ring.Record(span.StageCacheProbe, 0, time.Microsecond, hit)
				col.Shard(w).AddBusy(time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	s := col.Snapshot()
	if s.Sims != workers*perWorker {
		t.Fatalf("sims %d, want %d", s.Sims, workers*perWorker)
	}
	if s.Events != workers*perWorker*10 {
		t.Fatalf("events %d", s.Events)
	}
	if s.CacheHits != workers*((perWorker+2)/3) || s.CacheHits+s.CacheMisses != workers*perWorker {
		t.Fatalf("cache lookups: %d hits, %d misses", s.CacheHits, s.CacheMisses)
	}
	var total uint64
	for _, c := range s.LatencyBuckets {
		total += c
	}
	if total != workers*perWorker {
		t.Fatalf("histogram mass %d", total)
	}
}

func TestShardWrapsWhenOversubscribed(t *testing.T) {
	col := NewCollector(2)
	if col.Shard(0) != col.Shard(2) || col.Shard(1) != col.Shard(3) {
		t.Fatal("shard index does not wrap")
	}
	if col.Shard(-1) == nil {
		_ = col.Shard(-1) // negative indices must not panic
	}
	if len(NewCollector(0).shards) != 1 {
		t.Fatal("zero workers did not default to one shard")
	}
}

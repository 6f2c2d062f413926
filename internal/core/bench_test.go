package core

import (
	"fmt"
	"testing"
	"time"

	"dmexplore/internal/memhier"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// BenchmarkNeighbors times neighbourhood enumeration into a scratch,
// which runs allocation-free: screen-and-refine enumerates a
// neighbourhood per front member of every refinement ring.
func BenchmarkNeighbors(b *testing.B) {
	s := FullEasyportSpace()
	scratch := newNeighborScratch(s)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scratch.neighbors(s, i%s.Size())
	}
}

// BenchmarkRunnerFanout measures exploration scaling: one compiled trace,
// a fixed 64-configuration sample of the Easyport space, profiled with
// 1/2/4/8 workers. The configs/sec metric tracks how well the lock-free
// work distribution and per-worker replayers convert cores to throughput.
func BenchmarkRunnerFanout(b *testing.B) {
	p := workload.DefaultEasyportParams()
	p.Packets = 1500
	tr, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	space := EasyportSpace()
	const sampleN = 64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := &Runner{
				Hierarchy: memhier.EmbeddedSoC(),
				Trace:     tr,
				Compiled:  ct,
				Workers:   workers,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Sample(space, sampleN, 7); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			configsPerSec := float64(sampleN) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(configsPerSec, "configs/sec")
		})
	}
}

// BenchmarkEvolveWorkers measures generation-batched NSGA-II under a
// latency-modelled evaluation backend (see Runner.EvalLatency): with the
// per-generation offspring wave spread across the pool, wall-clock should
// shrink near-linearly in workers until the wave width is exhausted.
func BenchmarkEvolveWorkers(b *testing.B) {
	p := workload.DefaultEasyportParams()
	p.Packets = 400
	tr, err := p.Generate()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	space := FullEasyportSpace()
	objs := []string{"accesses", "footprint"}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := &Runner{
				Hierarchy: memhier.EmbeddedSoC(), Trace: tr, Compiled: ct,
				Workers: workers, EvalLatency: 2 * time.Millisecond,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := r.EvolveIsland(space, objs, IslandOptions{EvolveOptions: EvolveOptions{
					Population: 16, Budget: 64, Seed: 9,
				}})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// BenchmarkFullEasyportWalk runs a seeded 256-evaluation NSGA-II walk
// over FullEasyportSpace on the default Easyport trace, incremental
// evaluation on, and reports the slowest evaluation's Duration. Its tail
// is the unsegregated best/worst-fit configurations, whose free-list
// scans the indexed free lists answer in O(log n).
func BenchmarkFullEasyportWalk(b *testing.B) {
	tr, err := workload.DefaultEasyportParams().Generate()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	space := FullEasyportSpace()
	r := &Runner{Hierarchy: memhier.EmbeddedSoC(), Compiled: ct, Incremental: true}
	var slowest Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := r.EvolveIsland(space, []string{"accesses", "footprint"}, IslandOptions{
			EvolveOptions: EvolveOptions{Population: 64, Budget: 256, Seed: 42},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Duration > slowest.Duration {
				slowest = res
			}
		}
	}
	b.ReportMetric(float64(slowest.Duration.Microseconds())/1e3, "slowest_eval_ms")
	if slowest.Metrics != nil {
		b.Logf("slowest: %s (%v)", slowest.Metrics.ConfigLabel, slowest.Duration)
	}
}

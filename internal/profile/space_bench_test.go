package profile_test

import (
	"testing"

	"dmexplore/internal/alloc"
	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// Benchmarks over core's design spaces. They live in the external test
// package because core, which defines the spaces, imports profile.

// BenchmarkPartition measures partition builds: one op is 16 evenly
// spaced EasyportSpace configurations, every fixed-pool option among
// them, each partitioned over the default Easyport trace by one warm
// Replayer.
func BenchmarkPartition(b *testing.B) {
	tr, err := workload.DefaultEasyportParams().Generate()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	space := core.EasyportSpace()
	rep := profile.NewReplayer()
	cfgs := make([]alloc.Config, 16)
	for i := range cfgs {
		if cfgs[i], _, err = space.Config(i * space.Size() / len(cfgs)); err != nil {
			b.Fatal(err)
		}
	}
	partitionAll := func() {
		for _, cfg := range cfgs {
			if _, err := rep.Partition(ct, cfg, h); err != nil {
				b.Fatal(err)
			}
		}
	}
	partitionAll() // warm the Replayer's tables and flat view
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partitionAll()
	}
}

// BenchmarkReplayVTCLongWalks measures full replays of VTCSpace
// configurations 14 and 15 (one size class, next fit, no coalescing,
// split always; 8 KiB and 64 KiB chunks) on the default VTC trace: the
// sweep's two slowest configurations, whose next-fit walks pass lists
// of 8k blocks. One op is both replays by one warm Replayer.
func BenchmarkReplayVTCLongWalks(b *testing.B) {
	tr, err := workload.DefaultVTCParams().Generate()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		b.Fatal(err)
	}
	h := memhier.EmbeddedSoC()
	space := core.VTCSpace()
	rep := profile.NewReplayer()
	var cfgs []alloc.Config
	for _, i := range []int{14, 15} {
		cfg, _, err := space.Config(i)
		if err != nil {
			b.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	replayAll := func() {
		for _, cfg := range cfgs {
			if _, err := rep.Run(ct, cfg, h, profile.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	replayAll()                     // warm the Replayer's tables, stash and flat view
	b.SetBytes(int64(2 * ct.Len())) // "bytes" = events replayed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayAll()
	}
}

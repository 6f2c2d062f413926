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

// BenchmarkPartition measures partition builds: one op is 16 evenly
// spaced EasyportSpace configurations, every fixed-pool option among
// them, each partitioned over the default Easyport trace by one warm
// Replayer. It lives in the external test package because core, which
// defines the space, imports profile.
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

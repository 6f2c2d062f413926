package profile_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/trace"
	"dmexplore/internal/workload"
)

// partitionSlack bounds what a partition keeps beyond its 4-byte op
// positions: the struct, a few gap-maximum change points and one counter
// record per layer.
const partitionSlack = 512

// TestPartitionFootprint holds a partition to what only it knows, for
// every pools option of EasyportSpace on the 25% Easyport trace (seed 1,
// the benchmark's search trace). Its op sequence is 4 bytes an op, the
// trace itself gives back sizes, IDs and access words. Its skipped
// events, op count and content hash are pinned: the hash keys the
// pool-run memo, so a change to it changes which runs are shared. A
// warm Replayer builds each partition with the partition's own
// allocations only.
func TestPartitionFootprint(t *testing.T) {
	gen, err := workload.New("easyport", 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := trace.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		skipped, ops int
		hash         uint64
	}{
		"none":         {17034, 15074, 0xbcafd2a204d21356},
		"d74":          {26384, 5724, 0x09dcfcd114658476},
		"d74@sp":       {26384, 5724, 0x09dcfcd114658476},
		"d74+d1500":    {30212, 1896, 0x45ae0d97e71bfde2},
		"d74@sp+d1500": {30212, 1896, 0x45ae0d97e71bfde2},
	}
	h := memhier.EmbeddedSoC()
	space := core.EasyportSpace()
	pools := space.Axes[0]
	// The pools axis is the space's most significant digit.
	stride := space.Size() / len(pools.Options)
	r := profile.NewReplayer()
	for i := range pools.Options {
		cfg, labels, err := space.Config(i * stride)
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[labels[0]]
		if !ok {
			t.Fatalf("pools option %q has no pinned partition", labels[0])
		}
		part, err := r.Partition(ct, cfg, h)
		if err != nil {
			t.Fatal(err)
		}
		if got, limit := part.MemBytes(), 4*int64(part.Ops())+partitionSlack; got > limit {
			t.Errorf("%s: partition of %d ops keeps %d B, want at most %d", labels[0], part.Ops(), got, limit)
		}
		if part.SkippedEvents() != w.skipped || part.Ops() != w.ops || part.OpsHash() != w.hash {
			t.Errorf("%s: %d skipped events, %d ops, hash %#016x; want %d, %d, %#016x",
				labels[0], part.SkippedEvents(), part.Ops(), part.OpsHash(), w.skipped, w.ops, w.hash)
		}
	}

	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range pools.Options {
		cfg, labels, err := space.Config(i * stride)
		if err != nil {
			t.Fatal(err)
		}
		const want = 4 // the Partition, its positions, change points and counters
		n := leastAllocs(want, func() {
			if _, err := r.Partition(ct, cfg, h); err != nil {
				t.Fatal(err)
			}
		})
		if n != want {
			t.Errorf("%s: a warm Partition allocates %.0f times, want %d", labels[0], n, want)
		}
	}
}

package trace

import "dmexplore/internal/stats"

// Profile summarizes a trace's allocation behaviour. The exploration tool
// derives dedicated-pool candidates (dominant sizes) and pool budgets from
// it — the analysis step of the paper's flow that precedes configuration
// generation.
type Profile struct {
	Allocs      int64
	Frees       int64
	Accesses    int64 // access events
	AccessWords uint64
	TickCycles  uint64

	PeakLiveBytes  int64
	PeakLiveBlocks int64
	FinalLiveBytes int64

	// Sizes counts one observation per allocation, keyed by requested size.
	Sizes *stats.Histogram
	// Lifetimes counts, per allocation, the number of events between its
	// alloc and its free (unfreed allocations are not counted).
	Lifetimes *stats.Histogram
}

// Analyze computes the profile of a valid trace.
func Analyze(t *Trace) *Profile {
	p := &Profile{Sizes: stats.NewHistogram(), Lifetimes: stats.NewHistogram()}
	// size and born hold each dense ID's requested bytes and alloc index.
	dense, allocs := newIDTable(t.Events)
	size := make([]int64, allocs)
	born := make([]int, allocs)
	var liveBytes, liveBlocks int64
	for i, e := range t.Events {
		switch e.Kind() {
		case KindAlloc:
			sz := e.Size()
			p.Allocs++
			p.Sizes.Add(sz)
			idx, _ := dense.add(e.ID())
			size[idx], born[idx] = sz, i
			liveBytes += sz
			liveBlocks++
			if liveBytes > p.PeakLiveBytes {
				p.PeakLiveBytes = liveBytes
			}
			if liveBlocks > p.PeakLiveBlocks {
				p.PeakLiveBlocks = liveBlocks
			}
		case KindFree:
			p.Frees++
			liveBlocks--
			if idx, ok := dense.lookup(e.ID()); ok {
				p.Lifetimes.Add(int64(i - born[idx]))
				liveBytes -= size[idx]
			}
		case KindAccess:
			p.Accesses++
			p.AccessWords += uint64(e.Reads()) + uint64(e.Writes())
		case KindTick:
			p.TickCycles += uint64(e.Cycles())
		}
	}
	p.FinalLiveBytes = liveBytes
	return p
}

// DominantSizes returns the n most frequent requested sizes, descending
// by count — the candidates for dedicated pools.
func (p *Profile) DominantSizes(n int) []stats.ValueCount {
	return p.Sizes.TopN(n)
}

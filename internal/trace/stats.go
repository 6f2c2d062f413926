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
	type liveRec struct {
		size    int64
		bornIdx int
	}
	live := make(map[uint64]liveRec)
	var liveBytes, liveBlocks int64
	for i, e := range t.Events {
		switch e.Kind() {
		case KindAlloc:
			size := e.Size()
			p.Allocs++
			p.Sizes.Add(size)
			live[e.ID()] = liveRec{size: size, bornIdx: i}
			liveBytes += size
			liveBlocks++
			if liveBytes > p.PeakLiveBytes {
				p.PeakLiveBytes = liveBytes
			}
			if liveBlocks > p.PeakLiveBlocks {
				p.PeakLiveBlocks = liveBlocks
			}
		case KindFree:
			p.Frees++
			rec := live[e.ID()]
			p.Lifetimes.Add(int64(i - rec.bornIdx))
			liveBytes -= rec.size
			liveBlocks--
			delete(live, e.ID())
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

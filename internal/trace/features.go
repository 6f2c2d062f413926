package trace

import (
	"math"

	"dmexplore/internal/stats"
)

// Trace feature vector for surrogate-assisted screening: a fixed-length
// numeric summary of a compiled trace's allocation behaviour, computed
// once per exploration from the columnar slabs and fed — alongside the
// candidate's decoded axis digits — to the learned per-objective
// regressors (internal/core.Surrogate). Within one run the vector is a
// constant that anchors the model's intercept; across runs it is what
// lets a model warm-started from another workload's journal transfer:
// two traces with similar size mixes, lifetimes and burstiness get
// similar predictions.
//
// All features are finite for any valid compiled trace (the fuzz target
// FuzzTraceFeatures asserts this over everything the decoders accept),
// and deterministic: the same trace always yields the bit-identical
// vector. Features marked order-independent below depend only on the
// multiset of allocations (size histogram, counts) or on per-allocation
// quantities (lifetime percentiles), not on how unrelated events
// interleave; the live-set and burstiness features are order-dependent
// by design — interleaving is exactly what they measure.

// featureSizeBuckets is the number of log2 size-class histogram buckets:
// bucket i counts allocations with ⌊log2(size)⌋ = i, the last bucket
// absorbing everything ≥ 2^(featureSizeBuckets-1) bytes.
const featureSizeBuckets = 14

// featureWindows is the number of equal-width trace windows the
// burstiness features are computed over.
const featureWindows = 64

// NumFeatures is the length of the vector Features returns.
const NumFeatures = 12 + featureSizeBuckets

// FeatureNames returns the feature labels, index-aligned with Features.
func FeatureNames() []string {
	names := []string{
		"log_events",        // log1p(total events)
		"alloc_frac",        // allocs / events               (order-independent)
		"access_frac",       // access events / events        (order-independent)
		"tick_frac",         // tick events / events          (order-independent)
		"log_mean_size",     // log1p(mean allocation bytes)  (order-independent)
		"log_life_p25",      // log1p(lifetime p25, events)   (order-independent)
		"log_life_p50",      // log1p(lifetime p50, events)   (order-independent)
		"log_life_p90",      // log1p(lifetime p90, events)   (order-independent)
		"log_life_p99",      // log1p(lifetime p99, events)   (order-independent)
		"burstiness",        // cv of per-window alloc counts
		"phase_count",       // live-byte half-peak upcrossings / windows
		"live_mean_of_peak", // mean live bytes / peak live bytes
	}
	for i := 0; i < featureSizeBuckets; i++ {
		names = append(names, "size_class_"+string(rune('a'+i))) // fraction of allocs in log2 bucket i (order-independent)
	}
	return names
}

// Features computes the surrogate feature vector of a compiled trace.
// The result has length NumFeatures; every entry is finite.
func Features(c *Compiled) []float64 {
	f := make([]float64, 0, NumFeatures)
	n := c.Len()
	events := float64(n)
	f = append(f, math.Log1p(events))
	if events == 0 {
		events = 1 // the fraction features of an empty trace are all 0
	}
	f = append(f,
		float64(c.Allocs)/events,
		float64(c.Accesses)/events,
		float64(c.Ticks)/events,
	)

	kinds, ids, args := c.Slabs()

	// One pass over the slabs: allocation sizes and birth indices (for
	// lifetimes), the live-byte curve summary, and per-window alloc
	// counts. born/sizes are indexed by dense allocation ID.
	born := make([]int64, c.NumIDs)
	var sizeSum float64
	sizeHist := make([]float64, featureSizeBuckets)
	lifetimes := make([]float64, 0, c.Frees)
	var liveBytes, peakLive, liveIntegral float64
	// Half-peak upcrossings need the final peak, so record the curve's
	// value per window boundary instead of a second slab pass.
	windowOf := func(i int) int {
		if n == 0 {
			return 0
		}
		w := i * featureWindows / n
		if w >= featureWindows {
			w = featureWindows - 1
		}
		return w
	}
	windowAllocs := make([]float64, featureWindows)
	windowLive := make([]float64, featureWindows) // max live bytes per window
	for i := 0; i < n; i++ {
		switch kinds[i] {
		case KindAlloc:
			sz := float64(args[i])
			sizeSum += sz
			b := 0
			for s := int64(args[i]); s > 1 && b < featureSizeBuckets-1; s >>= 1 {
				b++
			}
			sizeHist[b]++
			born[ids[i]] = int64(i)
			liveBytes += sz
			if liveBytes > peakLive {
				peakLive = liveBytes
			}
			windowAllocs[windowOf(i)]++
		case KindFree:
			lifetimes = append(lifetimes, float64(int64(i)-born[ids[i]]))
			liveBytes -= float64(args[i])
		}
		liveIntegral += liveBytes
		if w := windowOf(i); liveBytes > windowLive[w] {
			windowLive[w] = liveBytes
		}
	}

	meanSize := 0.0
	if c.Allocs > 0 {
		meanSize = sizeSum / float64(c.Allocs)
	}
	f = append(f, math.Log1p(meanSize))
	for _, q := range []float64{0.25, 0.50, 0.90, 0.99} {
		f = append(f, math.Log1p(stats.Quantile(lifetimes, q)))
	}

	// Burstiness: coefficient of variation of per-window alloc counts.
	var ws stats.Summary
	for _, w := range windowAllocs {
		ws.Add(w)
	}
	burst := 0.0
	if ws.Mean() > 0 {
		burst = ws.StdDev() / ws.Mean()
	}
	f = append(f, burst)

	// Phase count: how many windows the live-byte curve rises above half
	// the trace's peak from below, normalized by the window count. One
	// sustained plateau counts once; an oscillating workload counts per
	// burst.
	phases := 0.0
	above := false
	for _, w := range windowLive {
		up := peakLive > 0 && w >= peakLive/2
		if up && !above {
			phases++
		}
		above = up
	}
	f = append(f, phases/featureWindows)

	liveMean := 0.0
	if n > 0 && peakLive > 0 {
		liveMean = liveIntegral / float64(n) / peakLive
	}
	f = append(f, liveMean)

	for _, h := range sizeHist {
		if c.Allocs > 0 {
			h /= float64(c.Allocs)
		}
		f = append(f, h)
	}
	return f
}

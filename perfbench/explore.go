package main

import (
	"fmt"
	"time"

	"dmexplore/internal/core"
	"dmexplore/internal/memhier"
	"dmexplore/internal/profile"
	"dmexplore/internal/stats"
	"dmexplore/internal/trace"
)

// NSGA-II search size shared by nsga-easyport and serve-islands, and
// their trace length in percent of the default Easyport trace.
const (
	nsgaPopulation = 64
	nsgaBudget     = 256
	searchScale    = 25
)

// runSweepVTC sweeps every VTC configuration with full replays: the
// paper's exhaustive flow, where the replay kernel is almost all the work.
func runSweepVTC(b *bench, t *tracer) (*iter, error) {
	it := newIter()
	it.root = t.begin("iteration sweep-vtc", -1)
	setupStart := time.Now()
	tr, ct, err := genTrace(b, t, it, "vtc", 100)
	if err != nil {
		return nil, err
	}
	h := memhier.EmbeddedSoC()
	space := core.VTCSpace()
	r := &core.Runner{Hierarchy: h, Trace: tr, Compiled: ct, Workers: b.workers}
	observe(r, t, b.workers)
	it.setup = time.Since(setupStart)

	exploreStart := time.Now()
	var mem memDelta
	mem.start()
	jr, err := openJournal(b, t, it)
	if err != nil {
		return nil, err
	}
	r.Observer = jr.observe
	var results []core.Result
	it.call, err = t.call("core.explore", it.root, func() error {
		var err error
		results, err = r.Explore(space)
		return err
	})
	if results == nil {
		return nil, err
	}
	if err := publish(b, t, it, "sweep-vtc", space.AxisLabels(), results); err != nil {
		return nil, err
	}
	if err := jr.close(t, it); err != nil {
		return nil, err
	}
	it.explore = time.Since(exploreStart)
	it.alloc = mem.stop()
	t.end(it.root)

	it.evals, it.failed = len(results), countErrors(results)
	it.print = fingerprint(results)
	resultLayers(it, results, ct.Len(), b.workers)
	if err := spanLayers(it, r); err != nil {
		return nil, err
	}
	it.verify = func() (int, int, error) {
		// A seeded sample re-profiled through the reference path, which
		// compiles the trace afresh and runs one replay per call.
		checks, bad := 0, 0
		for _, idx := range stats.NewRNG(b.searchSeed).Perm(len(results))[:min(6, len(results))] {
			cfg, _, err := space.Config(idx)
			if err != nil {
				return 0, 0, err
			}
			want, err := profile.Run(tr, cfg, h, profile.Options{})
			if err != nil {
				return 0, 0, err
			}
			checks++
			if !sameMetrics(results[idx].Metrics, want) {
				bad++
			}
		}
		return checks, bad, nil
	}
	return it, nil
}

// runNSGAEasyport runs seeded NSGA-II over the full Easyport space with
// incremental evaluation: the session's partition cache, pool-run memo
// and generation barriers do most of the work.
func runNSGAEasyport(b *bench, t *tracer) (*iter, error) {
	it := newIter()
	it.root = t.begin("iteration nsga-easyport", -1)
	setupStart := time.Now()
	_, ct, err := genTrace(b, t, it, "easyport", searchScale)
	if err != nil {
		return nil, err
	}
	h := memhier.EmbeddedSoC()
	space := core.EasyportSpace()
	r := &core.Runner{Hierarchy: h, Compiled: ct, Workers: b.workers, Incremental: true}
	observe(r, t, b.workers)
	var sess *core.EvalSession
	if _, err := t.call("core.session_open", it.root, func() error {
		var err error
		sess, err = r.NewSession(space)
		return err
	}); err != nil {
		return nil, err
	}
	it.setup = time.Since(setupStart)

	exploreStart := time.Now()
	var mem memDelta
	mem.start()
	jr, err := openJournal(b, t, it)
	if err != nil {
		sess.Close()
		return nil, err
	}
	opts := core.IslandOptions{
		EvolveOptions: core.EvolveOptions{
			Population: nsgaPopulation, Budget: nsgaBudget, Seed: b.searchSeed,
		},
		OnResult: jr.observe,
	}
	var results []core.Result
	it.call, err = t.call("core.explore", it.root, func() error {
		var err error
		results, err = r.EvolveIslandSession(sess, space, objectives, opts)
		return err
	})
	cache := sess.IncrementalCacheStats()
	t.call("core.session_close", it.root, func() error { sess.Close(); return nil })
	if err != nil {
		return nil, err
	}
	if err := publish(b, t, it, "nsga-easyport", space.AxisLabels(), results); err != nil {
		return nil, err
	}
	if err := jr.close(t, it); err != nil {
		return nil, err
	}
	it.explore = time.Since(exploreStart)
	it.alloc = mem.stop()
	t.end(it.root)

	it.evals, it.failed = len(results), countErrors(results)
	it.print = fingerprint(results)
	resultLayers(it, results, ct.Len(), b.workers)
	it.layer["core.partition_cache_mb"] = float64(cache.PartitionBytes) / (1 << 20)
	it.layer["core.pool_memo_mb"] = float64(cache.PoolRunBytes) / (1 << 20)
	if err := spanLayers(it, r); err != nil {
		return nil, err
	}
	it.verify = func() (int, int, error) {
		return verifyFastPaths(space, ct, h, b.searchSeed, results)
	}
	return it, nil
}

// verifyFastPaths re-simulates a seeded sample of the partial and the
// composed results with a full replay; both must match it bit for bit.
func verifyFastPaths(space *core.Space, ct *trace.Compiled, h *memhier.Hierarchy, seed uint64, results []core.Result) (int, int, error) {
	const perTier = 6
	var partial, composed []core.Result
	rng := stats.NewRNG(seed)
	for _, i := range rng.Perm(len(results)) {
		res := results[i]
		switch {
		case res.Composed && len(composed) < perTier:
			composed = append(composed, res)
		case res.Incremental && !res.Composed && len(partial) < perTier:
			partial = append(partial, res)
		}
	}
	rep := profile.NewReplayer()
	checks, bad := 0, 0
	for _, res := range append(partial, composed...) {
		cfg, _, err := space.Config(res.Index)
		if err != nil {
			return 0, 0, err
		}
		want, err := rep.Run(ct, cfg, h, profile.Options{})
		if err != nil {
			return 0, 0, fmt.Errorf("configuration %d: %w", res.Index, err)
		}
		checks++
		if !sameMetrics(res.Metrics, want) {
			bad++
		}
	}
	return checks, bad, nil
}

func countErrors(results []core.Result) int {
	n := 0
	for _, r := range results {
		if r.Err != nil {
			n++
		}
	}
	return n
}

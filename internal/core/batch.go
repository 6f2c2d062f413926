package core

import (
	"fmt"

	"dmexplore/internal/telemetry"
)

// evalBatcher is the deduplicating evaluation layer under the guided
// search strategies. A strategy exposes its natural batch width — an
// NSGA-II offspring generation, a screening sample, a refinement ring —
// and the batcher evaluates only the indices it has never seen, in one
// wave across the session's full worker pool.
//
// The batcher is not safe for concurrent use: each search (and each
// island) owns one and drives it from its coordinating goroutine. The
// parallelism lives in EvalSession, which returns a wave's results in
// request order, so the walk is the same at any worker count.
type evalBatcher struct {
	sess *EvalSession

	// onResult, when set, receives every fresh successful result in
	// request order.
	onResult func(Result)

	// strategy names the owning search in every origin the batcher emits.
	strategy string

	results map[int]Result
	order   []int // successful first evaluations, in request order

	// Lineage state: pending holds the provenance strategies tagged onto
	// candidates that have not been evaluated yet (first tag wins, so a
	// deduplicated candidate keeps the operator that bred it first);
	// wave counts fresh-evaluation waves, stamping every origin with the
	// generation it was profiled in.
	pending map[int]*telemetry.Origin
	wave    int
}

// newEvalBatcher builds the evaluation layer of one search over sess.
func newEvalBatcher(sess *EvalSession, strategy string) *evalBatcher {
	return &evalBatcher{
		sess:     sess,
		strategy: strategy,
		results:  make(map[int]Result),
		pending:  make(map[int]*telemetry.Origin),
	}
}

// origin returns idx's pending provenance record, creating it on first
// use, or nil once idx has been profiled (its provenance is already
// journaled).
func (b *evalBatcher) origin(idx int) *telemetry.Origin {
	if _, done := b.results[idx]; done {
		return nil
	}
	o := b.pending[idx]
	if o == nil {
		o = &telemetry.Origin{}
		b.pending[idx] = o
	}
	return o
}

// tag records the search provenance of a candidate before evaluation:
// the operator that produced it and the configuration(s) it derives
// from. The first tag for an index wins — when two operators breed the
// same genome, the journal attributes it to the first.
func (b *evalBatcher) tag(idx int, op string, parents ...int) {
	if o := b.origin(idx); o != nil && o.Op == "" {
		o.Op = op
		if len(parents) > 0 {
			o.Parents = append([]int(nil), parents...)
		}
	}
}

// getBatch returns a result per requested index, in request order.
// Indices already profiled are served from memory; the remainder is
// deduplicated and evaluated in one session wave. Every slot is filled
// before the first per-result failure in request order, if any, is
// returned.
func (b *evalBatcher) getBatch(indices []int) ([]Result, error) {
	if len(indices) == 0 {
		return nil, nil
	}
	var todo []int
	fresh := make(map[int]bool)
	for _, idx := range indices {
		if _, ok := b.results[idx]; ok || fresh[idx] {
			continue
		}
		fresh[idx] = true
		todo = append(todo, idx)
	}
	if len(todo) > 0 {
		// Consume the candidates' pending provenance, stamping the
		// strategy and the fresh-evaluation wave number. Untagged indices
		// (test-driven batches) fall back to a bare "probe" origin so
		// every journaled evaluation has one.
		b.wave++
		origins := make([]*telemetry.Origin, len(todo))
		for i, idx := range todo {
			o := b.origin(idx)
			delete(b.pending, idx)
			if o.Op == "" {
				o.Op = "probe"
			}
			o.Strategy = b.strategy
			o.Wave = b.wave
			origins[i] = o
		}
		res, err := b.sess.Eval(todo, origins)
		for i, idx := range todo {
			if res == nil {
				// Eval failed before producing results (closed session).
				b.results[idx] = Result{Index: idx, Err: err}
				continue
			}
			r := res[i]
			b.results[idx] = r
			if r.Err == nil {
				b.order = append(b.order, idx)
				if b.onResult != nil {
					b.onResult(r)
				}
			}
		}
	}

	out := make([]Result, len(indices))
	for i, idx := range indices {
		out[i] = b.results[idx]
	}
	for _, res := range out {
		if res.Err != nil {
			return out, fmt.Errorf("core: %w", res.Err)
		}
	}
	return out, nil
}

// limit returns the longest prefix of indices whose evaluation would
// profile at most maxNew previously unseen configurations. Strategies use
// it to cap a batch at the remaining simulation budget without losing the
// already-profiled (free) members of the prefix.
func (b *evalBatcher) limit(indices []int, maxNew int) []int {
	newSeen := make(map[int]bool)
	for i, idx := range indices {
		if _, ok := b.results[idx]; ok || newSeen[idx] {
			continue
		}
		if len(newSeen) == maxNew {
			return indices[:i]
		}
		newSeen[idx] = true
	}
	return indices
}

// lookup returns the recorded result for idx, if any.
func (b *evalBatcher) lookup(idx int) (Result, bool) {
	res, ok := b.results[idx]
	return res, ok
}

// has reports whether idx has already been profiled (or failed).
func (b *evalBatcher) has(idx int) bool {
	_, ok := b.results[idx]
	return ok
}

// len returns the number of distinct configurations profiled so far —
// the quantity search budgets count.
func (b *evalBatcher) len() int {
	return len(b.results)
}

// all returns every successfully profiled result in first-evaluation
// order.
func (b *evalBatcher) all() []Result {
	out := make([]Result, 0, len(b.order))
	for _, idx := range b.order {
		out = append(out, b.results[idx])
	}
	return out
}

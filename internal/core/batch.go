package core

import (
	"fmt"
	"sync"

	"dmexplore/internal/telemetry"
)

// evalBatcher is the deduplicating evaluation layer under the guided
// search strategies. A strategy exposes its natural batch width — an
// NSGA-II offspring generation, a hill-climb neighbourhood, an annealing
// speculation window — and the batcher evaluates only the indices it has
// never seen, in one wave across the session's full worker pool.
//
// The batcher is safe for concurrent use: overlapping getBatch calls
// dedupe against both completed results and in-flight indices, so a
// configuration is profiled at most once per search no matter how the
// caller fans out.
type evalBatcher struct {
	sess *EvalSession

	// predict and onResult, when set, wire a surrogate into the batcher:
	// predict supplies the per-objective forecast journaled with every
	// fresh evaluation, onResult receives every fresh successful result
	// in request order (the surrogate's online-training hook). Both run
	// on the getBatch caller's goroutine with no lock held, so a batcher
	// carrying them must be driven from a single coordinating goroutine
	// — which is how every guided strategy drives it.
	predict  func(idx int) map[string]float64
	onResult func(Result)

	// strategy names the owning search in every origin the batcher
	// emits; it is set once, right after construction, before any
	// evaluation.
	strategy string

	mu       sync.Mutex
	results  map[int]Result
	inflight map[int]chan struct{} // closed when the owning batch lands
	order    []int                 // successful first evaluations, in request order

	// Lineage state: pending holds the provenance strategies tagged onto
	// candidates that have not been evaluated yet (first tag wins, so a
	// deduplicated candidate keeps the operator that bred it first);
	// wave counts fresh-evaluation waves, stamping every origin with the
	// generation it was profiled in.
	pending map[int]*telemetry.Origin
	wave    int
}

func newEvalBatcher(sess *EvalSession) *evalBatcher {
	return &evalBatcher{
		sess:     sess,
		results:  make(map[int]Result),
		inflight: make(map[int]chan struct{}),
		pending:  make(map[int]*telemetry.Origin),
	}
}

// tag records the search provenance of a candidate before evaluation:
// the operator that produced it and the configuration(s) it derives
// from. The first tag for an index wins — when two operators breed the
// same genome, the journal attributes it to the first — and tags on
// already-profiled indices are dropped (their provenance is already
// journaled).
func (b *evalBatcher) tag(idx int, op string, parents ...int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, done := b.results[idx]; done {
		return
	}
	o := b.pending[idx]
	if o == nil {
		o = &telemetry.Origin{}
		b.pending[idx] = o
	}
	if o.Op == "" {
		o.Op = op
		if len(parents) > 0 {
			o.Parents = append([]int(nil), parents...)
		}
	}
}

// noteRank annotates a pending candidate with its 1-based position in
// the latest surrogate ranking; the last ranking before evaluation is
// the one journaled.
func (b *evalBatcher) noteRank(idx, rank int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, done := b.results[idx]; done {
		return
	}
	o := b.pending[idx]
	if o == nil {
		o = &telemetry.Origin{}
		b.pending[idx] = o
	}
	o.SurrogateRank = rank
}

// noteAdmit annotates how a surrogate screen admitted a pending
// candidate ("score" or "explore").
func (b *evalBatcher) noteAdmit(idx int, admit string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, done := b.results[idx]; done {
		return
	}
	o := b.pending[idx]
	if o == nil {
		o = &telemetry.Origin{}
		b.pending[idx] = o
	}
	o.Admit = admit
}

// getBatch returns a result per requested index, in request order. Indices
// already profiled are served from memory; indices being profiled by a
// concurrent getBatch are waited on; the remainder is evaluated in one
// session wave. The error is the first per-result failure in request
// order, if any.
func (b *evalBatcher) getBatch(indices []int) ([]Result, error) {
	if len(indices) == 0 {
		return nil, nil
	}
	// Claim: split the request into cached / someone-else's / ours.
	b.mu.Lock()
	var todo []int
	claimed := make(map[int]bool)
	var waits []chan struct{}
	waitSeen := make(map[chan struct{}]bool)
	mine := make(chan struct{})
	for _, idx := range indices {
		if _, ok := b.results[idx]; ok || claimed[idx] {
			continue
		}
		if ch, ok := b.inflight[idx]; ok {
			if !waitSeen[ch] {
				waitSeen[ch] = true
				waits = append(waits, ch)
			}
			continue
		}
		claimed[idx] = true
		b.inflight[idx] = mine
		todo = append(todo, idx)
	}
	// Consume the claimed candidates' pending provenance, stamping the
	// strategy and the fresh-evaluation wave number. Untagged indices
	// (reference probes, test-driven batches) fall back to a bare
	// "probe" origin so every journaled evaluation has one.
	var origins []*telemetry.Origin
	if len(todo) > 0 {
		b.wave++
		origins = make([]*telemetry.Origin, len(todo))
		for i, idx := range todo {
			o := b.pending[idx]
			if o == nil {
				o = &telemetry.Origin{}
			}
			delete(b.pending, idx)
			if o.Op == "" {
				o.Op = "probe"
			}
			o.Strategy = b.strategy
			o.Wave = b.wave
			origins[i] = o
		}
	}
	b.mu.Unlock()

	if len(todo) > 0 {
		var preds []map[string]float64
		if b.predict != nil {
			preds = make([]map[string]float64, len(todo))
			for i, idx := range todo {
				preds[i] = b.predict(idx)
			}
		}
		res, err := b.sess.Eval(todo, preds, origins)
		b.mu.Lock()
		for i, idx := range todo {
			if res != nil {
				b.results[idx] = res[i]
				if res[i].Err == nil {
					b.order = append(b.order, idx)
				}
			} else {
				// Eval failed before producing results (closed session):
				// record the failure so waiters see a terminal state.
				b.results[idx] = Result{Index: idx, Err: err}
			}
			delete(b.inflight, idx)
		}
		b.mu.Unlock()
		close(mine)
		if b.onResult != nil && res != nil {
			for _, r := range res {
				if r.Err == nil {
					b.onResult(r)
				}
			}
		}
	}
	for _, ch := range waits {
		<-ch
	}

	out := make([]Result, len(indices))
	b.mu.Lock()
	for i, idx := range indices {
		out[i] = b.results[idx]
	}
	b.mu.Unlock()
	for _, res := range out {
		if res.Err != nil {
			return out, fmt.Errorf("core: %w", res.Err)
		}
	}
	return out, nil
}

// getOne is the single-index convenience over getBatch.
func (b *evalBatcher) getOne(idx int) (Result, error) {
	res, err := b.getBatch([]int{idx})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// limit returns the longest prefix of indices whose evaluation would
// profile at most maxNew previously unseen configurations. Strategies use
// it to cap a batch at the remaining simulation budget without losing the
// already-profiled (free) members of the prefix.
func (b *evalBatcher) limit(indices []int, maxNew int) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
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
	b.mu.Lock()
	defer b.mu.Unlock()
	res, ok := b.results[idx]
	return res, ok
}

// has reports whether idx has already been profiled (or failed).
func (b *evalBatcher) has(idx int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.results[idx]
	return ok
}

// len returns the number of distinct configurations profiled so far —
// the quantity search budgets count.
func (b *evalBatcher) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.results)
}

// all returns every successfully profiled result in first-evaluation
// order.
func (b *evalBatcher) all() []Result {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Result, 0, len(b.order))
	for _, idx := range b.order {
		out = append(out, b.results[idx])
	}
	return out
}

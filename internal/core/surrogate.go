package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"dmexplore/internal/stats"
	"dmexplore/internal/telemetry"
	"dmexplore/internal/telemetry/span"
	"dmexplore/internal/trace"
)

// Surrogate-assisted candidate screening: an online model learns each
// objective from the exact simulations a search has already paid for, and
// the strategies use its predictions to decide which candidates deserve
// the next real simulation. The model is a per-objective incremental
// ridge regression (stats.Ridge) over a fixed encoding:
//
//	x = [bias | trace feature vector | one-hot axis digits]
//
// The trace features (trace.Features) are constant within one run — they
// anchor the intercept and let a model warm-started from another
// journal's observations transfer across workloads — while the one-hot
// digits carry the per-candidate signal. Targets are log1p(objective)
// (objective values span orders of magnitude); a separate ridge predicts
// infeasibility (1 = allocation failures) and its output penalizes the
// scalarized score so the screen does not chase configurations that look
// cheap because they fail.
//
// Determinism: every prediction and every training update happens on the
// strategy's coordinating goroutine — predictions when a wave is
// assembled, training when the wave's results land, both in batcher
// request order. No randomness is consumed: the ε-exploration slice is
// filled with the highest-leverage (most informative under the ridge
// posterior) candidates instead of random draws. A fixed seed therefore
// yields the identical search for any worker count, and with
// Runner.Surrogate nil the strategies take their original code paths
// untouched.

// surrogateMinTrain is the number of exact results the models must absorb
// before predictions participate in ranking; below it the screen passes
// candidates through in their given order.
const surrogateMinTrain = 8

// surrogateBootstrapProbes is the uniform probe wave the scalarized
// strategies evaluate to seed an untrained surrogate (on top of the
// referenceScales probes).
const surrogateBootstrapProbes = 16

// surrogateClimbChunk is how many top-ranked neighbours a surrogate-
// assisted hill-climb step evaluates per wave before consulting the
// ranking again.
const surrogateClimbChunk = 8

// surrogateOversample is how many candidate offspring (in units of the
// population size) a surrogate-assisted NSGA-II generation breeds before
// screening them down to one generation's worth of real simulations.
const surrogateOversample = 4

// surrogateEpsilon is the fraction of every screened wave reserved for
// exploration: candidates with the highest model uncertainty (ridge
// leverage) rather than the best predicted score.
const surrogateEpsilon = 0.125

// surrogatePoolCap caps how many candidates one ranking call scores (the
// screening pool the strategies draw from).
const surrogatePoolCap = 4096

// surrogateLambda is the ridge regularization strength.
const surrogateLambda = 1e-3

// SurrogateOptions enable surrogate-assisted screening on a Runner.
type SurrogateOptions struct {
	// WarmStart replays prior journal records (same space and workload)
	// into the models before the search begins, so the first waves are
	// already guided.
	WarmStart []telemetry.Record
}

// surrogate is the per-search instance: models and encoding buffers. It
// counts its use in the runner's telemetry.Collector; its accuracy is
// read off the results (SurrogateAccuracy). The methods strategies and
// the batcher call are nil-safe, so they thread one pointer through
// without branching; rank returns its input unchanged until the models
// are ready.
type surrogate struct {
	space   *Space
	weights []Weighted
	opts    SurrogateOptions
	col     *telemetry.Collector
	spans   *span.Ring   // coordinator flight-recorder ring (nil-safe)
	b       *evalBatcher // set by newEvalBatcher, for lineage annotations

	feats   []float64 // trace feature block, constant per run
	axisOff []int     // one-hot offset of each axis within the digit block
	dim     int

	models  map[string]*stats.Ridge // per-objective value models
	infeas  *stats.Ridge            // feasibility model (1 = infeasible)
	maxSeen map[string]float64      // running per-objective scale
	penalty float64                 // infeasibility score penalty
	trained int
	pareto  bool // rank by interleaved scalarization directions

	x      []float64 // encode scratch
	digits []int
}

// newSurrogate builds the surrogate for one search, or returns nil when
// the runner has screening disabled — the strategies' original code paths
// run untouched in that case.
func (r *Runner) newSurrogate(sess *EvalSession, weights []Weighted) *surrogate {
	if r.Surrogate == nil {
		return nil
	}
	space := sess.space
	axisOff := make([]int, len(space.Axes))
	oneHot := 0
	for i, ax := range space.Axes {
		axisOff[i] = oneHot
		oneHot += len(ax.Options)
	}
	feats := trace.Features(sess.ct)
	s := &surrogate{
		space:   space,
		weights: weights,
		opts:    *r.Surrogate,
		col:     sess.col,
		spans:   r.Spans.Coord(),
		feats:   feats,
		axisOff: axisOff,
		dim:     1 + len(feats) + oneHot,
		models:  make(map[string]*stats.Ridge, len(weights)),
		maxSeen: make(map[string]float64, len(weights)),
		digits:  make([]int, len(space.Axes)),
	}
	s.x = make([]float64, s.dim)
	s.infeas = stats.NewRidge(s.dim, surrogateLambda)
	for _, w := range weights {
		if s.models[w.Objective] == nil {
			s.models[w.Objective] = stats.NewRidge(s.dim, surrogateLambda)
		}
		s.penalty += 4 * math.Abs(w.Weight)
	}
	for _, rec := range s.opts.WarmStart {
		s.warmStart(rec)
	}
	return s
}

// encode builds the feature vector of configuration idx into the scratch
// buffer; the result is valid until the next encode call.
func (s *surrogate) encode(idx int) []float64 {
	x := s.x
	for i := range x {
		x[i] = 0
	}
	x[0] = 1
	copy(x[1:], s.feats)
	s.space.digitsInto(s.digits, idx)
	base := 1 + len(s.feats)
	for ax, d := range s.digits {
		x[base+s.axisOff[ax]+d] = 1
	}
	return x
}

// ready reports whether the models have seen enough exact results for
// their predictions to participate in ranking.
func (s *surrogate) ready() bool {
	return s != nil && s.trained >= surrogateMinTrain
}

// observe absorbs one exact result: feasibility and (when feasible) every
// objective value.
func (s *surrogate) observe(res Result) {
	if s == nil || res.Err != nil || res.Metrics == nil {
		return
	}
	x := s.encode(res.Index)
	feasible := res.Metrics.Feasible()
	target := 0.0
	if !feasible {
		target = 1
	}
	s.infeas.Observe(x, target)
	if feasible {
		for _, w := range s.weights {
			v, err := res.Metrics.Objective(w.Objective)
			if err != nil {
				continue
			}
			if v > s.maxSeen[w.Objective] {
				s.maxSeen[w.Objective] = v
			}
			s.models[w.Objective].Observe(x, math.Log1p(math.Max(v, 0)))
		}
	}
	s.trained++
	s.col.AddSurrogateTrained(1)
}

// warmStart replays one prior journal record into the models.
func (s *surrogate) warmStart(rec telemetry.Record) {
	if rec.Index < 0 || rec.Index >= s.space.Size() {
		return
	}
	s.observe(ResultFromRecord(rec))
}

// predictAt returns the per-objective predicted values for idx (the
// journal payload), or nil while the models are still warming up.
func (s *surrogate) predictAt(idx int) map[string]float64 {
	if !s.ready() {
		return nil
	}
	x := s.encode(idx)
	out := make(map[string]float64, len(s.models))
	for obj, m := range s.models {
		mean, _ := m.Predict(x)
		out[obj] = math.Expm1(mean)
	}
	return out
}

// score is the scalarized predicted objective of idx (lower is better):
// the weighted sum of predicted values normalized by the running
// per-objective scale, plus the infeasibility penalty.
func (s *surrogate) score(idx int) float64 {
	if !s.ready() {
		return 0
	}
	x := s.encode(idx)
	var score float64
	for _, w := range s.weights {
		mean, _ := s.models[w.Objective].Predict(x)
		scale := s.maxSeen[w.Objective]
		if scale <= 0 {
			scale = 1
		}
		score += w.Weight * math.Expm1(mean) / scale
	}
	p, _ := s.infeas.Predict(x)
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	return score + p*s.penalty
}

// leverage is the model uncertainty at idx: the ridge leverage of its
// encoding under the feasibility model (which sees every observation).
func (s *surrogate) leverage(idx int) float64 {
	_, lev := s.infeas.Predict(s.encode(idx))
	return lev
}

// paretoRank switches the ranking entry points to the multi-direction
// interleave (rankPareto): the mode the Pareto-front strategies use,
// where a single scalarized ordering would funnel every wave toward the
// knee of the trade-off.
func (s *surrogate) paretoRank() {
	if s != nil {
		s.pareto = true
	}
}

// rank returns cands ordered by predicted score ascending (ties broken
// by index, so the order is total and deterministic). While the models
// are warming up the input order is returned unchanged. Each ranking
// lands one surrogate-screen span on the coordinator ring and stamps
// every candidate's pending origin with its 1-based position.
func (s *surrogate) rank(cands []int) []int {
	if !s.ready() || len(cands) < 2 {
		return cands
	}
	var start time.Time
	if s.spans != nil {
		start = time.Now()
	}
	var out []int
	if s.pareto && len(s.weights) > 1 {
		out = s.rankPareto(cands)
	} else {
		scores := make(map[int]float64, len(cands))
		for _, idx := range cands {
			if _, ok := scores[idx]; !ok {
				scores[idx] = s.score(idx)
			}
		}
		s.col.AddSurrogatePredictions(uint64(len(scores)))
		out = append([]int(nil), cands...)
		sort.SliceStable(out, func(i, j int) bool {
			si, sj := scores[out[i]], scores[out[j]]
			if si != sj {
				return si < sj
			}
			return out[i] < out[j]
		})
	}
	s.spans.Since(span.StageSurrogateScreen, start, int64(len(cands)))
	for i, idx := range out {
		s.b.noteRank(idx, i+1)
	}
	return out
}

// rankPareto orders cands for a multi-objective search: one ranking per
// scalarization direction — the weighted blend plus each objective on
// its own — merged round-robin with duplicates dropped. The blend alone
// would concentrate every wave on the knee of the trade-off; the
// single-objective directions keep candidates that extend the front's
// extremes in the evaluated prefix, which is where the hypervolume
// lives. Fully deterministic: directions are fixed, every sort is total
// (score, then index), and the merge order is positional.
func (s *surrogate) rankPareto(cands []int) []int {
	m := len(s.weights)
	// Predict once per distinct candidate: the normalized value per
	// objective plus the shared infeasibility penalty.
	type row struct {
		vals []float64
		pen  float64
	}
	rows := make(map[int]*row, len(cands))
	uniq := make([]int, 0, len(cands))
	for _, idx := range cands {
		if _, ok := rows[idx]; ok {
			continue
		}
		x := s.encode(idx)
		rw := &row{vals: make([]float64, m)}
		for i, w := range s.weights {
			mean, _ := s.models[w.Objective].Predict(x)
			scale := s.maxSeen[w.Objective]
			if scale <= 0 {
				scale = 1
			}
			rw.vals[i] = math.Expm1(mean) / scale
		}
		p, _ := s.infeas.Predict(x)
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		rw.pen = p * s.penalty
		rows[idx] = rw
		uniq = append(uniq, idx)
	}
	s.col.AddSurrogatePredictions(uint64(len(uniq)))

	dirs := make([][]float64, 0, m+1)
	blend := make([]float64, m)
	for i, w := range s.weights {
		blend[i] = w.Weight
	}
	dirs = append(dirs, blend)
	for i := 0; i < m; i++ {
		d := make([]float64, m)
		d[i] = 1
		dirs = append(dirs, d)
	}
	rankings := make([][]int, len(dirs))
	for di, d := range dirs {
		score := func(idx int) float64 {
			rw := rows[idx]
			v := rw.pen
			for i, wt := range d {
				v += wt * rw.vals[i]
			}
			return v
		}
		order := append([]int(nil), uniq...)
		sort.SliceStable(order, func(a, b int) bool {
			sa, sb := score(order[a]), score(order[b])
			if sa != sb {
				return sa < sb
			}
			return order[a] < order[b]
		})
		rankings[di] = order
	}
	out := make([]int, 0, len(uniq))
	picked := make(map[int]bool, len(uniq))
	for pos := 0; len(out) < len(uniq); pos++ {
		for _, rk := range rankings {
			idx := rk[pos]
			if !picked[idx] {
				picked[idx] = true
				out = append(out, idx)
			}
		}
	}

	// Spread predicted twins: many configurations differ only in axes the
	// simulator is indifferent to, so the model scores them identically
	// and a plain ranking stacks a whole wave with equivalents. Push every
	// candidate whose quantized prediction repeats an earlier pick behind
	// the first representative of its bucket, so a budget-capped prefix
	// covers distinct predicted outcomes.
	bucket := func(idx int) string {
		rw := rows[idx]
		var sb strings.Builder
		for _, v := range rw.vals {
			fmt.Fprintf(&sb, "%.3f,", v)
		}
		fmt.Fprintf(&sb, "%.2f", rw.pen)
		return sb.String()
	}
	depth := make(map[string]int, len(out))
	var tiers [][]int
	for _, idx := range out {
		k := bucket(idx)
		t := depth[k]
		depth[k] = t + 1
		if t >= len(tiers) {
			tiers = append(tiers, nil)
		}
		tiers[t] = append(tiers[t], idx)
	}
	out = out[:0]
	for _, tier := range tiers {
		out = append(out, tier...)
	}
	return out
}

// dedupFrontMetrics keeps one representative per distinct metric vector
// of a Pareto front (ParetoSet keeps every co-frontal duplicate). The
// surrogate's refinement rings expand from the deduplicated front: the
// neighbourhoods of metric-identical members are near-identical too, and
// expanding all of them spends the ring budget re-simulating equivalents.
func dedupFrontMetrics(front []Result) []Result {
	type key struct {
		acc, cyc, fail uint64
		foot           int64
		energy         uint64
	}
	seen := make(map[key]bool, len(front))
	out := make([]Result, 0, len(front))
	for _, f := range front {
		m := f.Metrics
		k := key{m.Accesses, m.Cycles, m.Failures, m.FootprintBytes, math.Float64bits(m.EnergyNJ)}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

// screen picks k of cands for exact evaluation: the best predicted
// scores, with a surrogateEpsilon fraction of the slots going to the
// highest-leverage (most informative) candidates instead — the
// deterministic ε-exploration that keeps the models from locking onto
// their own early bias. The dropped remainder is counted as screened out.
func (s *surrogate) screen(cands []int, k int) []int {
	if s == nil || k >= len(cands) {
		return s.rank(cands)
	}
	if k <= 0 {
		s.col.AddSurrogateScreened(uint64(len(cands)))
		return nil
	}
	if !s.ready() {
		return cands[:k]
	}
	ranked := s.rank(cands)
	nExplore := int(surrogateEpsilon * float64(k))
	picked := append([]int(nil), ranked[:k-nExplore]...)
	for _, idx := range picked {
		s.b.noteAdmit(idx, "score")
	}
	if nExplore > 0 {
		rest := append([]int(nil), ranked[k-nExplore:]...)
		lev := make(map[int]float64, len(rest))
		for _, idx := range rest {
			lev[idx] = s.leverage(idx)
		}
		sort.SliceStable(rest, func(i, j int) bool {
			li, lj := lev[rest[i]], lev[rest[j]]
			if li != lj {
				return li > lj
			}
			return rest[i] < rest[j]
		})
		picked = append(picked, rest[:nExplore]...)
		for _, idx := range rest[:nExplore] {
			s.b.noteAdmit(idx, "explore")
		}
	}
	dropped := uint64(len(cands) - len(picked))
	s.col.AddSurrogateScreened(dropped)
	return picked
}

// equalWeights adapts a Pareto objective list to the scalarized form the
// surrogate scores with: unit weight per objective.
func equalWeights(objectives []string) []Weighted {
	ws := make([]Weighted, len(objectives))
	for i, obj := range objectives {
		ws[i] = Weighted{Objective: obj, Weight: 1}
	}
	return ws
}

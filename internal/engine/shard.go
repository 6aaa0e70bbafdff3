package engine

import (
	"fmt"

	"lrm/internal/core"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/privacy"
	"lrm/internal/workload"
)

// Row-sharded prepare (Options.ShardRows): a workload with more queries
// than one ALM decomposition should swallow is split into row blocks that
// prepare concurrently, cache independently, and answer as one
// concatenated release.
//
// Each shard is an ordinary workload keyed by its own content
// fingerprint, so it flows through the engine's existing LRU +
// singleflight + disk-cache machinery unchanged — two sharded workloads
// sharing a row block share that shard's preparation, and a restart
// restores shards from disk like any other workload.
//
// Privacy composes sequentially: every shard answers the same database,
// so a request at per-histogram budget ε releases each of the k shards at
// ε/k, keeping the total at exactly ε (privacy.ComposeSequential over k
// copies of ε/k). Seeded requests remain deterministic and replayable:
// histogram i of shard s draws from the stream seeded Seed + s·B + i
// (B = batch size), so distinct (shard, histogram) pairs never share a
// stream — correlated noise across shards would break the composition
// argument.

// shardPlanLimit bounds the plan memo; past it the memo resets (the cost
// is re-hashing shard fingerprints on the next request per live
// workload). Plans hold only row bounds and fingerprint strings — never
// matrix data — so the memo's footprint stays a few kilobytes no matter
// how large the sharded workloads are.
const shardPlanLimit = 64

// shardPlan is the cached row partition of one sharded workload: the
// row bounds of each shard and its content fingerprint.
type shardPlan struct {
	bounds []shardBounds
	fps    []string
}

type shardBounds struct{ lo, hi int }

// shardWorkload materializes shard s of w as its own workload, copying
// the rows. Called only when a shard must actually be prepared (cache
// and disk miss) — the copy is what non-LRM Prepared implementations
// may retain, and retaining a slice view would pin the whole parent
// matrix instead.
func shardWorkload(w *workload.Workload, b shardBounds, s int) *workload.Workload {
	return &workload.Workload{
		W:    w.W.Slice(b.lo, b.hi, 0, w.Domain()),
		Name: fmt.Sprintf("%s#%d", w.Name, s),
	}
}

// planFor returns the row partition of w, memoized by the parent
// workload's fingerprint. Shard fingerprints hash zero-copy row-range
// views (a row block of a row-major matrix is contiguous), so building a
// plan allocates no matrix data.
func (e *Engine) planFor(fp string, w *workload.Workload) *shardPlan {
	e.shardMu.Lock()
	pl, ok := e.shardPlans[fp]
	e.shardMu.Unlock()
	if ok {
		return pl
	}
	m, n := w.Queries(), w.Domain()
	k := (m + e.shardRows - 1) / e.shardRows
	pl = &shardPlan{bounds: make([]shardBounds, k), fps: make([]string, k)}
	raw := w.W.RawData()
	for s := 0; s < k; s++ {
		lo := s * e.shardRows
		hi := min(lo+e.shardRows, m)
		pl.bounds[s] = shardBounds{lo: lo, hi: hi}
		view := mat.NewFromData(hi-lo, n, raw[lo*n:hi*n])
		pl.fps[s] = core.Fingerprint(view)
	}
	e.shardMu.Lock()
	if len(e.shardPlans) >= shardPlanLimit {
		e.shardPlans = make(map[string]*shardPlan)
	}
	// Two goroutines may have built the plan concurrently; both plans
	// are identical, so last-write-wins is fine.
	e.shardPlans[fp] = pl
	e.shardMu.Unlock()
	return pl
}

// answerSharded serves one request through the row partition: shards
// prepare concurrently on the shared pool, answer at ε/k each, and their
// releases concatenate in row order.
func (e *Engine) answerSharded(fp string, req Request) ([][]float64, error) {
	e.sharded.Add(1)
	plan := e.planFor(fp, req.Workload)
	k := len(plan.fps)
	epsShard := privacy.Epsilon(float64(req.Eps) / float64(k))
	if err := epsShard.Validate(); err != nil {
		return nil, fmt.Errorf("engine: per-shard epsilon %v over %d shards: %w", float64(req.Eps), k, err)
	}

	// The request's budget covers the composed spend: ε per histogram
	// (k shards × ε/k). Spending it up front keeps the accounting
	// identical to the unsharded path and fails the whole request before
	// any shard releases noise.
	if req.Budget != 0 {
		budget, err := privacy.NewBudget(req.Budget)
		if err != nil {
			return nil, err
		}
		for range req.Histograms {
			if err := budget.Spend(req.Eps); err != nil {
				return nil, err
			}
		}
	}

	// Prepare every shard first, concurrently: cold shards decompose in
	// parallel on the shared pool (each decomposition's own GEMM tiles
	// draw from the same pool, so nested parallelism degrades gracefully),
	// warm shards are pure cache lookups — the shard rows are copied out
	// of the parent only when a shard actually needs preparing. Waiters
	// on a coalesced flight block only on flights whose owner is actively
	// running, so the dynamic claiming cannot deadlock even when shards
	// share a fingerprint.
	preps := make([]mechanism.Prepared, k)
	errs := make([]error, k)
	mat.ParallelFor(k, func(s int) {
		if p, ok := e.cached(plan.fps[s]); ok {
			preps[s] = p
			return
		}
		preps[s], errs[s] = e.prepared(req.Context, plan.fps[s], shardWorkload(req.Workload, plan.bounds[s], s), nil)
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine: preparing shard %d/%d: %w", s, k, err)
		}
	}

	// Commit point: every shard is prepared, noise is next. The
	// tenant's durable spend is the full composed ε, charged once.
	if err := e.commit(req); err != nil {
		return nil, err
	}

	b := len(req.Histograms)
	out := make([][]float64, b)
	for i := range out {
		out[i] = make([]float64, req.Workload.Queries())
	}
	shardOut := make([][]float64, b)
	// The n×B column matrix is identical for every shard; build it once
	// on first use and reuse it across the loop.
	var cols *mat.Dense
	row := 0
	for s := 0; s < k; s++ {
		for i := range shardOut {
			shardOut[i] = nil
		}
		var err error
		if req.Seed == 0 {
			if ba, ok := preps[s].(mechanism.BatchAnswerer); ok && b > 1 {
				if cols == nil {
					cols = histogramColumns(req.Histograms)
				}
				err = e.answerMany(ba, cols, epsShard, nil, shardOut)
			} else {
				seeds := make([]int64, b)
				for i := range seeds {
					seeds[i] = e.nextSeed()
				}
				err = e.fanOut(preps[s], req.Histograms, epsShard, nil, seeds, shardOut)
			}
		} else {
			seeds := make([]int64, b)
			for i := range seeds {
				seeds[i] = req.Seed + int64(s*b+i)
			}
			err = e.fanOut(preps[s], req.Histograms, epsShard, nil, seeds, shardOut)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: answering shard %d/%d: %w", s, k, err)
		}
		rows := plan.bounds[s].hi - plan.bounds[s].lo
		for i := range out {
			copy(out[i][row:row+rows], shardOut[i])
		}
		row += rows
	}
	e.answers.Add(uint64(b))
	return out, nil
}

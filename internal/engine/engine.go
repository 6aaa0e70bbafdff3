// Package engine is the serving layer of the repository: a long-lived,
// goroutine-safe answering engine that amortizes the paper's expensive
// workload decomposition ("optimize once, answer forever") across many
// private releases and many concurrent clients.
//
// The engine keys workloads by a content fingerprint — core.Fingerprint
// over W's dimensions and data for a dense Request.Workload,
// workload.SpecFingerprint for an implicit Request.Spec — and keeps an
// LRU cache of mechanism.Prepared instances. Cache misses are
// deduplicated with singleflight semantics: N concurrent first requests
// for one workload run exactly one Prepare, and the other N−1 block on
// the same result (or give up with their own context).
//
// Both request kinds take one load path (cache.go; spec.go describes
// it): on a miss a dense workload becomes a workload.AsSpec adapter, and
// one load, one restore and one persist serve every workload. When a
// cache directory is configured, LRM decompositions are persisted as
// <fingerprint>-<tag>.lrmd (dense) or .lrmk (factored) and restored on
// the next miss — including by a different process — so the
// optimization cost is paid once per workload per deployment, not per
// process.
//
// Batches of histograms take the mechanism's multi-RHS path when it has
// one (mechanism.BatchAnswerer): the batch becomes an n×B matrix and
// every dense product runs as one packed GEMM, which is both faster than
// B mat-vecs and scheduler-neutral (the GEMM tiles draw from the shared
// pool). Seeded batches, and mechanisms without a batch path, fan out
// per histogram over the same pool (mat.ParallelFor) rather than an
// engine-owned goroutine fleet, so request-level parallelism and the
// GEMM tiles of any in-flight Prepare draw from one scheduler instead of
// oversubscribing each other. Each request may carry its own ε budget;
// spends are accounted on a per-request privacy.Budget, whose mutex
// makes concurrent workers unable to jointly overspend.
//
// Oversized dense workloads can opt into row-sharded prepare
// (Options.ShardRows): row blocks decompose concurrently, cache under
// their own fingerprints, answer at ε/k each (sequential composition),
// and concatenate — see shard.go.
//
// With Options.Planner set the engine becomes plan-aware: each workload
// is analyzed and planned (internal/plan) on first sight, the winning
// mechanism serves it, and the plan is cached and persisted alongside
// the preparation — see plan.go. Sharding composes: each row shard is
// planned independently under its own fingerprint.
package engine

import (
	"container/list"
	"context"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lrm/internal/core"
	"lrm/internal/faultfs"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// ErrClosed is returned by Answer after Close: a closed engine has
// released its durable accountant state and must not grant another
// spend against it.
var ErrClosed = errors.New("engine: closed")

// Options configures New. The zero value serves the Low-Rank Mechanism
// with an in-memory cache sized for a moderate workload mix.
type Options struct {
	// Mechanism prepares workloads; nil means mechanism.LRM{}. Only
	// mechanisms whose Prepared exposes a core.Decomposition (the LRM)
	// participate in the disk cache; others are cached in memory only.
	// Mutually exclusive with Planner.
	Mechanism mechanism.Mechanism
	// Planner, when non-nil, switches the engine from "one process, one
	// mechanism" to "one plan per workload": each new workload is
	// analyzed and planned (internal/plan) and served by the winning
	// mechanism with its tuned parameters. Plans are cached alongside
	// the Prepared instances in the same LRU/singleflight machinery —
	// in memory the entry keys by workload fingerprint (the plan is a
	// deterministic function of the fingerprint and these fixed planner
	// options), while disk artifacts key by fingerprint + planner-options
	// digest + plan digest, so a changed decision orphans stale files
	// instead of serving them. The planner's Fingerprint field is
	// overwritten per workload. Mutually exclusive with Mechanism.
	Planner *plan.Options
	// CacheSize bounds the number of prepared workloads held in memory
	// (default 64). Least-recently-answered workloads are evicted first.
	CacheSize int
	// CacheDir, when non-empty, persists LRM decompositions as
	// <fingerprint>-<options-digest>.lrmd files (.lrmk for a factored
	// Spec decomposition) and restores them on later misses. The directory is created if needed and may be shared
	// across processes (and across differently tuned engines — the
	// options digest keeps their files apart). Ignored for mechanisms
	// other than the LRM, which have no serializable decomposition.
	CacheDir string
	// Workers bounds the fan-out width of one batch request (default
	// GOMAXPROCS): a batch is split into at most Workers chunks, which
	// are answered concurrently on the numeric stack's shared worker
	// pool. Single-histogram requests are answered on the caller's
	// goroutine. Unseeded batches over a mechanism with a multi-RHS path
	// (mechanism.BatchAnswerer) skip the fan-out entirely: the whole
	// batch runs as packed multi-RHS GEMMs, whose tiles draw from the
	// same pool.
	Workers int
	// ShardRows, when positive, row-partitions any workload with more
	// than ShardRows queries into ⌈m/ShardRows⌉ row blocks that are
	// decomposed concurrently and cached independently — each shard
	// under its own content fingerprint, so overlapping workloads and
	// restarts reuse shard preparations, and workloads too large for a
	// single ALM decomposition become feasible. Answers are the
	// concatenation of the shard answers.
	//
	// Privacy: the shards are answered over the same database, so they
	// compose sequentially — each shard is released at ε/k (k = number
	// of shards) and the total per-histogram budget remains exactly the
	// request's Eps. This is the standard price of sharding: against a
	// joint decomposition at full ε, expected error grows by up to k²
	// on each shard's block, traded for an O(k)-smaller optimization
	// problem per shard and cross-workload shard reuse. Zero disables
	// sharding.
	ShardRows int
	// PrepareHook, when set, is called with the workload fingerprint each
	// time an actual Prepare executes (not on cache or disk hits). It
	// exists so tests can count preparations; leave nil in production.
	PrepareHook func(fingerprint string)
	// Accountant, when non-nil, charges each tenant-tagged request's
	// total ε (Eps × histograms, the sequential composition) against the
	// tenant's durable budget at the request's commit point — after the
	// preparation succeeds and the context is still live, before any
	// noise is drawn. The engine takes ownership: Close closes it.
	Accountant *privacy.Accountant
	// FS is the filesystem the disk cache reads and writes through; nil
	// means the real disk (faultfs.Disk). Tests inject faults here to
	// prove a torn cache file degrades to a fresh Prepare instead of an
	// outage.
	FS faultfs.FS
}

// Request is one answering call: a workload, one or more histograms to
// answer over it, and the privacy parameters of the release.
//
// The workload and histograms must not be mutated after the call starts:
// the engine caches state derived from W under a content fingerprint, so
// in-place mutation would silently serve answers for the old workload.
type Request struct {
	// Context, when non-nil, carries the request's deadline and
	// cancellation. It is consulted at entry and again at the commit
	// point — after the (possibly long) preparation, before any ε is
	// spent or noise drawn — so a caller that gave up never pays budget
	// for an answer it will not receive. Nil means context.Background().
	Context context.Context
	// Workload is the query batch W. Requests with bit-identical W share
	// one cached preparation. Exactly one of Workload and Spec must be
	// set.
	Workload *workload.Workload
	// Spec is the implicit form of the query batch: a structure-aware
	// workload.Spec answered without W ever being materialized. Requests
	// with equal Spec.Digest() share one cached preparation, keyed by
	// workload.SpecFingerprint. Spec requests never row-shard (there are
	// no matrix rows to slice). Exactly one of Workload and Spec must be
	// set.
	Spec workload.Spec
	// Histograms are the databases to answer; each must have Domain()
	// entries. Every histogram is released independently at Eps.
	//
	//lrm:source — unit-count histograms are the raw, unreleased data
	Histograms [][]float64
	// Eps is the per-histogram release budget.
	Eps privacy.Epsilon
	// Budget, when non-zero, caps the total ε this request may consume
	// (sequential composition across its histograms). The request fails
	// with privacy.ErrBudgetExhausted if len(Histograms)·Eps exceeds it.
	// Zero means exactly len(Histograms)·Eps, i.e. no extra cap.
	Budget privacy.Epsilon
	// Seed, when non-zero, makes the release reproducible: histogram i
	// draws its noise from a stream seeded with Seed+i regardless of
	// worker scheduling. This is a debug/audit mode — anyone who knows
	// the seed can regenerate the noise and subtract it, so a seeded
	// release carries no privacy against a party that learns the seed.
	// Zero (the default) draws each histogram's noise from the engine's
	// unpredictable stream (seeded from crypto/rand at startup, never
	// repeating), which is the right choice for real private releases.
	Seed int64
	// Tenant, when non-empty on an engine configured with an Accountant,
	// names the durable per-tenant budget this request's total ε is
	// charged against. The charge happens once, at the commit point, and
	// a refused charge fails the request with privacy.ErrBudgetExhausted
	// before any noise is drawn. Empty skips tenant accounting.
	Tenant string
	// Fingerprint, when non-empty, must be core.Fingerprint(Workload.W);
	// the engine trusts it and skips both hashing and the pointer memo.
	// Callers that build a fresh workload per request (the HTTP server)
	// should set it: their pointers never repeat, so memoizing them
	// would only pin dead matrices in memory until the memo resets.
	Fingerprint string
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Requests and Answers count Answer calls and histograms answered.
	Requests, Answers uint64
	// Hits and Misses count in-memory cache lookups; Coalesced counts
	// requests that piggybacked on another request's in-flight Prepare.
	Hits, Misses, Coalesced uint64
	// Prepares counts actual decomposition runs; Evictions LRU evictions.
	Prepares, Evictions uint64
	// Planned counts planner runs (plan-aware engines only): workloads
	// whose mechanism was chosen by an actual plan.New, as opposed to a
	// cache hit or a plan document restored from disk.
	Planned uint64
	// DiskHits and DiskWrites count decompositions restored from and
	// persisted to the cache directory.
	DiskHits, DiskWrites uint64
	// Batched counts batches answered through a mechanism's multi-RHS
	// path (one packed GEMM per batch instead of a per-histogram
	// fan-out); Sharded counts requests served by row-sharded prepare.
	Batched, Sharded uint64
	// Implicit counts requests served through the spec path (Request.Spec
	// set): workloads answered with W never materialized.
	Implicit uint64
	// Cached is the number of prepared workloads currently resident.
	Cached int
}

// Engine is a goroutine-safe answering service. Create with New, release
// with Close.
type Engine struct {
	mech     mechanism.Mechanism
	planner  *plan.Options // non-nil switches to per-workload planning
	dir      string
	optTag   string  // digest of the LRM options, part of cache filenames
	gamma    float64 // the LRM's configured relaxation, for disk-load validation
	capacity int
	hook     func(string)
	fs       faultfs.FS

	// Durable per-tenant ε accounting (Options.Accountant); owned by the
	// engine — Close closes it.
	accountant *privacy.Accountant
	closed     atomic.Bool
	closeOnce  sync.Once
	closeErr   error

	// Prepared-workload cache and singleflight table.
	mu sync.Mutex
	// lru holds *cacheEntry values, most recent at front.
	//
	//lrm:guardedby mu
	lru *list.List
	//lrm:guardedby mu
	byFP map[string]*list.Element
	//lrm:guardedby mu
	flight map[string]*flightCall

	// Pointer-identity fingerprint memo: hashing a large W costs more
	// than answering it, so repeat calls with the same *mat.Dense skip
	// the hash. Bounded by reset; entries are only a pointer and a hash.
	memoMu sync.RWMutex
	//lrm:guardedby memoMu
	memo map[*mat.Dense]string

	// fanout bounds how many chunks one batch request is split into on
	// the shared pool (Options.Workers).
	fanout int

	// Row sharding (Options.ShardRows): shardPlans memoizes the row
	// partition of each sharded workload — the sliced shard matrices and
	// their fingerprints — keyed by the parent workload's fingerprint.
	shardRows int
	shardMu   sync.Mutex
	//lrm:guardedby shardMu
	shardPlans map[string]*shardPlan

	// Pooled noise sources: Answer reseeds one per histogram instead of
	// allocating, keeping the cache-hit path at two allocations.
	sources sync.Pool

	// Unseeded requests draw per-histogram seeds from a secret random
	// base mixed with a unique counter, so their noise is unpredictable
	// and never repeats across requests.
	seedBase uint64
	seedCtr  atomic.Uint64

	requests, answers    atomic.Uint64
	hits, misses         atomic.Uint64
	coalesced, prepares  atomic.Uint64
	evictions, planned   atomic.Uint64
	diskHits, diskWrites atomic.Uint64
	batched, sharded     atomic.Uint64
	implicit             atomic.Uint64
}

// memoLimit bounds the fingerprint memo; past it the memo is reset (the
// cost is only re-hashing on the next call per live workload). The map's
// pointer keys strongly retain their matrices, so the bound is kept small
// — callers that churn through fresh workload allocations should pass
// Request.Fingerprint and bypass the memo entirely.
const memoLimit = 256

// New starts an engine. Close flushes and closes the accountant's
// write-ahead logs (when one is configured) and fails all subsequent
// Answer calls with ErrClosed.
func New(opts Options) (*Engine, error) {
	e := &Engine{
		mech:       opts.Mechanism,
		dir:        opts.CacheDir,
		capacity:   opts.CacheSize,
		hook:       opts.PrepareHook,
		fs:         opts.FS,
		accountant: opts.Accountant,
		lru:        list.New(),
		byFP:       make(map[string]*list.Element),
		flight:     make(map[string]*flightCall),
		memo:       make(map[*mat.Dense]string),
	}
	if e.fs == nil {
		e.fs = faultfs.Disk
	}
	if opts.Planner != nil && opts.Mechanism != nil {
		return nil, fmt.Errorf("engine: Options.Mechanism and Options.Planner are mutually exclusive")
	}
	e.planner = opts.Planner
	if e.mech == nil && e.planner == nil {
		e.mech = mechanism.LRM{}
	}
	if e.capacity <= 0 {
		e.capacity = 64
	}
	// The disk cache stores LRM decompositions; for any other fixed
	// mechanism a cached .lrmd would be answered by the wrong mechanism
	// entirely, so the directory is ignored unless the engine serves the
	// LRM or plans per workload (planned engines additionally persist
	// the plan documents that say which mechanism each file belongs to).
	// The filename carries a digest of the LRM options (or of the
	// planner options) so engines tuned differently sharing a directory
	// don't serve each other's artifacts.
	switch {
	case e.planner != nil && e.dir != "":
		if err := e.fs.MkdirAll(e.dir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: cache dir: %w", err)
		}
		po := *e.planner
		po.Fingerprint = "" // per-workload, not part of the engine's identity
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", po)))
		e.optTag = hex.EncodeToString(sum[:4])
	case e.planner != nil:
		// memory-only planned engine
	default:
		if l, ok := e.mech.(mechanism.LRM); ok && e.dir != "" {
			if err := e.fs.MkdirAll(e.dir, 0o755); err != nil {
				return nil, fmt.Errorf("engine: cache dir: %w", err)
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", l.Options)))
			e.optTag = hex.EncodeToString(sum[:4])
			e.gamma = l.Options.Gamma
		} else {
			e.dir = ""
		}
	}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("engine: seeding: %w", err)
	}
	e.seedBase = binary.LittleEndian.Uint64(seed[:])
	// The pool only constructs placeholder sources: every Get is
	// immediately followed by Reseed with either the caller's audit seed
	// or nextSeed()'s crypto-based stream, so the constant below never
	// produces noise.
	//lint:ignore noiserand pooled sources are Reseed-ed before every use
	e.sources.New = func() any { return rng.New(0) }
	e.fanout = opts.Workers
	if e.fanout <= 0 {
		e.fanout = runtime.GOMAXPROCS(0)
	}
	if opts.ShardRows < 0 {
		return nil, fmt.Errorf("engine: negative ShardRows %d", opts.ShardRows)
	}
	e.shardRows = opts.ShardRows
	e.shardPlans = make(map[string]*shardPlan)
	return e, nil
}

// Close shuts the engine down: subsequent Answer calls fail with
// ErrClosed, and the accountant's write-ahead logs (when configured) are
// flushed and closed so no further durable spends can be granted. Close
// is idempotent — every call returns the first call's error. In-flight
// Answer calls that already passed their commit point complete; their
// spends were durable before Close returned.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		if e.accountant != nil {
			e.closeErr = e.accountant.Close()
		}
	})
	return e.closeErr
}

// Warm reports whether a fingerprint's preparation is resident in the
// in-memory cache, without freshening the LRU or touching the hit
// counters — a pure peek for admission control: under pressure the
// server sheds cold requests (which would burn a Prepare) while cheap
// warm answers keep flowing.
func (e *Engine) Warm(fp string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.byFP[fp]
	return ok
}

// ctxErr returns the context's error, treating nil as Background.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// commit is the request's commit point, shared by the unsharded and
// sharded paths: the preparation is done and noise is about to be drawn.
// A request whose caller has already given up is abandoned here, before
// it costs any ε. Otherwise its total ε — Eps per histogram, composed
// sequentially — is charged against its tenant's durable budget: the
// request's single accounting event, durable even if the caller later
// disconnects.
func (e *Engine) commit(req Request) error {
	if err := ctxErr(req.Context); err != nil {
		return err
	}
	if e.accountant == nil || req.Tenant == "" {
		return nil
	}
	eps := privacy.Epsilon(float64(req.Eps) * float64(len(req.Histograms)))
	return e.accountant.Spend(req.Tenant, eps)
}

// Accountant returns the engine's durable accountant, or nil. The
// server uses it to surface per-tenant remaining ε in GET /stats.
func (e *Engine) Accountant() *privacy.Accountant { return e.accountant }

// Answer releases private answers for every histogram in the request and
// returns them in request order. It is safe to call from any number of
// goroutines; identical workloads share one cached preparation.
//
//lrm:sink return — everything Answer returns leaves the privacy boundary
func (e *Engine) Answer(req Request) ([][]float64, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := ctxErr(req.Context); err != nil {
		return nil, err
	}
	var n int
	switch {
	case req.Spec != nil && req.Workload != nil:
		return nil, errors.New("engine: request sets both Workload and Spec")
	case req.Spec != nil:
		if req.Spec.Queries() <= 0 || req.Spec.Domain() <= 0 {
			return nil, errors.New("engine: empty spec")
		}
		n = req.Spec.Domain()
	case req.Workload == nil || req.Workload.W == nil:
		return nil, errors.New("engine: nil workload")
	default:
		n = req.Workload.Domain()
	}
	if len(req.Histograms) == 0 {
		return nil, errors.New("engine: no histograms")
	}
	if err := req.Eps.Validate(); err != nil {
		return nil, err
	}
	for i, x := range req.Histograms {
		if len(x) != n {
			return nil, fmt.Errorf("engine: histogram %d has %d entries, domain is %d", i, len(x), n)
		}
	}
	e.requests.Add(1)

	if req.Spec != nil {
		e.implicit.Add(1)
	}
	if d, ok := req.Spec.(*workload.DenseSpec); ok {
		// The adapter IS the dense path: same fingerprint, so adapter and
		// plain-Workload requests share one cache entry, and row sharding
		// still applies.
		req.Workload, req.Spec = d.Dense(), nil
	}

	fp := req.Fingerprint
	switch {
	case fp != "":
	case req.Spec != nil:
		fp = workload.SpecFingerprint(req.Spec)
	default:
		fp = e.fingerprint(req.Workload.W)
	}
	if req.Workload != nil && e.shardRows > 0 && req.Workload.Queries() > e.shardRows {
		return e.answerSharded(fp, req)
	}
	p, err := e.prepared(req.Context, fp, req.Workload, req.Spec)
	if err != nil {
		return nil, err
	}
	return e.release(p, req)
}

// release is the post-preparation tail of an unsharded request: commit
// point, per-request budget, then the actual noisy answers.
//
//lrm:sink return — everything release returns leaves the privacy boundary
func (e *Engine) release(p mechanism.Prepared, req Request) ([][]float64, error) {
	if err := e.commit(req); err != nil {
		return nil, err
	}

	var budget *privacy.Budget
	if req.Budget != 0 {
		var err error
		if budget, err = privacy.NewBudget(req.Budget); err != nil {
			return nil, err
		}
	}

	out := make([][]float64, len(req.Histograms))
	if len(req.Histograms) == 1 {
		// Single release: answer inline. The pool buys nothing here, and
		// keeping the fan-out closures out of this function keeps the
		// cache-hit path at two allocations (the result slices).
		a, err := e.answerOne(p, req.Histograms[0], req.Eps, budget, e.seedFor(req.Seed, 0))
		if err != nil {
			return nil, err
		}
		out[0] = a
		e.answers.Add(1)
		return out, nil
	}
	if err := e.answerBatch(p, req, budget, out); err != nil {
		return nil, err
	}
	e.answers.Add(uint64(len(req.Histograms)))
	return out, nil
}

// answerBatch answers a multi-histogram request, filling out in request
// order. Unseeded batches over a mechanism with a multi-RHS path take the
// batched route: one packed GEMM per dense product for the whole batch.
// Seeded batches keep the documented per-histogram stream contract
// (histogram i is seeded Seed+i, replayable independently), which a
// single shared stream could not honor, so they fan out per vector like
// mechanisms without a batch path.
func (e *Engine) answerBatch(p mechanism.Prepared, req Request, budget *privacy.Budget, out [][]float64) error {
	if req.Seed == 0 {
		if ba, ok := p.(mechanism.BatchAnswerer); ok {
			return e.answerMany(ba, histogramColumns(req.Histograms), req.Eps, budget, out)
		}
	}
	n := len(req.Histograms)
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = e.seedFor(req.Seed, i)
	}
	return e.fanOut(p, req.Histograms, req.Eps, budget, seeds, out)
}

// histogramColumns stacks a request's histograms as the columns of the
// n×B matrix the multi-RHS path takes.
func histogramColumns(hists [][]float64) *mat.Dense {
	x := mat.New(len(hists[0]), len(hists))
	for j, h := range hists {
		x.SetCol(j, h)
	}
	return x
}

// answerMany routes one batch through the mechanism's multi-RHS path:
// histograms become the columns of an n×B matrix (x, built once per
// request — the sharded path reuses it across shards), one AnswerMany
// call answers them all (its GEMM tiles parallelize on the shared pool),
// and the result columns become the per-histogram answer slices. The
// whole batch draws from one unpredictable noise stream; budget spends
// are accounted per histogram up front, exactly like the fan-out path.
func (e *Engine) answerMany(ba mechanism.BatchAnswerer, x *mat.Dense, eps privacy.Epsilon, budget *privacy.Budget, out [][]float64) error {
	b := x.Cols()
	if budget != nil {
		for i := 0; i < b; i++ {
			if err := budget.Spend(eps); err != nil {
				return err
			}
		}
	}
	src := e.sources.Get().(*rng.Source)
	src.Reseed(e.nextSeed())
	y, err := ba.AnswerMany(x, eps, src)
	e.sources.Put(src)
	if err != nil {
		return err
	}
	m := y.Rows()
	yd := y.RawData()
	for j := range out {
		a := make([]float64, m)
		for i := 0; i < m; i++ {
			a[i] = yd[i*b+j]
		}
		out[j] = a
	}
	e.batched.Add(1)
	return nil
}

// fanOut answers histograms[i] with seeds[i] across the shared worker
// pool, filling out in order. Seeds are resolved by the caller up front
// so a seeded release is identical however the chunks are scheduled; the
// batch is split into at most e.fanout contiguous chunks so one request
// cannot monopolize the pool beyond its configured width.
func (e *Engine) fanOut(p mechanism.Prepared, hists [][]float64, eps privacy.Epsilon, budget *privacy.Budget, seeds []int64, out [][]float64) error {
	n := len(hists)
	errs := make([]error, n)
	width := e.fanout
	if width > n {
		width = n
	}
	chunk := (n + width - 1) / width
	mat.ParallelFor(width, func(w int) {
		hi := (w + 1) * chunk
		if hi > n {
			hi = n
		}
		for i := w * chunk; i < hi; i++ {
			out[i], errs[i] = e.answerOne(p, hists[i], eps, budget, seeds[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// seedFor resolves the noise seed for histogram i of a request: reqSeed+i
// when the caller pinned a seed, otherwise a fresh unpredictable value.
func (e *Engine) seedFor(reqSeed int64, i int) int64 {
	if reqSeed != 0 {
		return reqSeed + int64(i)
	}
	return e.nextSeed()
}

// nextSeed returns an unpredictable, never-repeating seed: splitmix64
// over a crypto/rand base and a unique counter. The mixer guarantees the
// counter's structure doesn't survive into the output; unpredictability
// rests on the secret base.
func (e *Engine) nextSeed() int64 {
	z := e.seedBase + e.seedCtr.Add(1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func (e *Engine) answerOne(p mechanism.Prepared, x []float64, eps privacy.Epsilon, budget *privacy.Budget, seed int64) ([]float64, error) {
	if budget != nil {
		if err := budget.Spend(eps); err != nil {
			return nil, err
		}
	}
	src := e.sources.Get().(*rng.Source)
	src.Reseed(seed)
	out, err := p.Answer(x, eps, src)
	e.sources.Put(src)
	return out, err
}

// fingerprint returns core.Fingerprint(w), memoized by pointer identity
// so the steady-state answer path never re-hashes a workload it has
// already seen. Callers guarantee workloads are not mutated (see Request).
func (e *Engine) fingerprint(w *mat.Dense) string {
	e.memoMu.RLock()
	fp, ok := e.memo[w]
	e.memoMu.RUnlock()
	if ok {
		return fp
	}
	fp = core.Fingerprint(w)
	e.memoMu.Lock()
	if len(e.memo) >= memoLimit {
		e.memo = make(map[*mat.Dense]string)
	}
	e.memo[w] = fp
	e.memoMu.Unlock()
	return fp
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	cached := e.lru.Len()
	e.mu.Unlock()
	return Stats{
		Requests:   e.requests.Load(),
		Answers:    e.answers.Load(),
		Hits:       e.hits.Load(),
		Misses:     e.misses.Load(),
		Coalesced:  e.coalesced.Load(),
		Prepares:   e.prepares.Load(),
		Planned:    e.planned.Load(),
		Evictions:  e.evictions.Load(),
		DiskHits:   e.diskHits.Load(),
		DiskWrites: e.diskWrites.Load(),
		Batched:    e.batched.Load(),
		Sharded:    e.sharded.Load(),
		Implicit:   e.implicit.Load(),
		Cached:     cached,
	}
}

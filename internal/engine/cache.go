package engine

import (
	"context"
	"fmt"
	"io"
	"path/filepath"

	"lrm/internal/core"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/workload"
)

// cacheEntry is one prepared workload resident in the LRU. On a
// plan-aware engine pl records the decision that chose p's mechanism —
// plans ride the same LRU/singleflight as the Prepared they produced,
// so a plan can never outlive (or lag behind) its preparation.
type cacheEntry struct {
	fp string
	p  mechanism.Prepared
	pl *plan.Plan // nil on fixed-mechanism engines
}

// flightCall is one in-flight preparation that concurrent requests for the
// same fingerprint coalesce onto (singleflight). p and err are written
// exactly once, before done is closed; waiters read them only after
// receiving from done, so the channel close publishes them.
type flightCall struct {
	done chan struct{}
	p    mechanism.Prepared
	err  error
}

// wait blocks until the flight lands or the waiter's ctx ends, whichever
// comes first; a waiter that gives up leaves the flight to its owner.
func (c *flightCall) wait(ctx context.Context) (mechanism.Prepared, error) {
	var cancelled <-chan struct{} // nil (never ready) without a ctx
	if ctx != nil {
		cancelled = ctx.Done()
	}
	select {
	case <-c.done:
		return c.p, c.err
	case <-cancelled:
		return nil, ctx.Err()
	}
}

// cached returns the resident Prepared for a fingerprint without
// preparing anything on a miss (freshening the LRU and hit counter like
// any lookup). The sharded path uses it to answer warm shards without
// materializing their workload rows at all; a false return is not
// authoritative under concurrency — callers follow up with prepared(),
// whose singleflight still guarantees at most one preparation.
func (e *Engine) cached(fp string) (mechanism.Prepared, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.byFP[fp]; ok {
		e.lru.MoveToFront(el)
		e.hits.Add(1)
		return el.Value.(*cacheEntry).p, true
	}
	return nil, false
}

// prepared returns the Prepared instance for the workload with the given
// fingerprint, preparing (or loading from disk) at most once per
// fingerprint no matter how many goroutines ask concurrently. Exactly one
// of w and s is set. Only the flight owner wraps a dense w as a
// workload.AsSpec adapter, so a cache hit never pays the adapter's
// re-hash and O(m·n) sums.
//
// A failed or panicking load is contained: the panic becomes an error
// that the owner and every waiter receive, the flight is cleared, and
// the fingerprint is retried by the next request. Waiters also give up
// when their own ctx ends, without disturbing the owner.
func (e *Engine) prepared(ctx context.Context, fp string, w *workload.Workload, s workload.Spec) (p mechanism.Prepared, err error) {
	e.mu.Lock()
	if el, ok := e.byFP[fp]; ok {
		e.lru.MoveToFront(el)
		e.mu.Unlock()
		e.hits.Add(1)
		return el.Value.(*cacheEntry).p, nil
	}
	if c, ok := e.flight[fp]; ok {
		e.mu.Unlock()
		e.coalesced.Add(1)
		return c.wait(ctx)
	}
	c := &flightCall{done: make(chan struct{})}
	e.flight[fp] = c
	e.mu.Unlock()

	e.misses.Add(1)
	var pl *plan.Plan
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("engine: preparing %s panicked: %v", fp, r)
		}
		e.mu.Lock()
		delete(e.flight, fp)
		if err == nil {
			e.insertLocked(fp, p, pl)
		}
		e.mu.Unlock()
		c.p, c.err = p, err
		close(c.done)
	}()
	if s == nil {
		s = workload.AsSpec(w)
	}
	p, pl, err = e.load(fp, s)
	return p, err
}

// insertLocked adds a prepared workload at the front of the LRU and evicts
// from the back past capacity. Caller holds e.mu and owns the (sole)
// flight for fp, so no entry for fp can already be resident.
//
//lrm:guardedby mu
func (e *Engine) insertLocked(fp string, p mechanism.Prepared, pl *plan.Plan) {
	e.byFP[fp] = e.lru.PushFront(&cacheEntry{fp: fp, p: p, pl: pl})
	for e.lru.Len() > e.capacity {
		el := e.lru.Back()
		evicted := el.Value.(*cacheEntry).fp
		delete(e.byFP, evicted)
		e.lru.Remove(el)
		e.evictions.Add(1)
		e.dropMemo(evicted)
	}
}

// dropMemo removes fingerprint-memo entries for an evicted workload, so
// the memo's pointer keys stop pinning matrices the cache no longer
// serves. Eviction is cold-path; the scan is bounded by memoLimit.
func (e *Engine) dropMemo(fp string) {
	e.memoMu.Lock()
	for k, v := range e.memo {
		if v == fp {
			delete(e.memo, k)
		}
	}
	e.memoMu.Unlock()
}

// load produces the Prepared (and, on a plan-aware engine, the Plan) for
// one fingerprint: disk cache first (when configured), then a fresh
// preparation, which is persisted back to disk for the next process.
func (e *Engine) load(fp string, s workload.Spec) (mechanism.Prepared, *plan.Plan, error) {
	if e.planner != nil {
		return e.loadPlanned(fp, s)
	}
	path := e.artifactPath(fp, "", s)
	if path != "" {
		if p, err := e.restore(path, s, e.gamma); err == nil {
			e.diskHits.Add(1)
			return p, nil, nil
		}
		// A missing, corrupt, or mismatched cache file must never take
		// down serving: fall through to a fresh preparation.
	}
	e.prepares.Add(1)
	if e.hook != nil {
		e.hook(fp)
	}
	p, err := mechanism.PrepareSpec(e.mech, s, nil)
	if err != nil {
		return nil, nil, err
	}
	if path != "" && e.persist(path, p) {
		e.diskWrites.Add(1)
	}
	return p, nil, nil
}

// artifactPath returns the decomposition file for a fingerprint, or ""
// when disk caching is disabled (no directory configured, or a fixed
// mechanism other than the LRM). Every name is
// <fingerprint>-<tag>[-<planDigest>].<ext>: tag digests the LRM options
// (fixed engines) or the planner options (planned engines), so
// differently tuned engines sharing a directory never serve each
// other's factorizations; a planned lrm winner adds its plan digest, so
// a replanned decision can never be served by the previous decision's
// factorization. The extension names the format: .lrmd for a dense
// decomposition, .lrmk for a factored one. All parts are lowercase hex
// (spec fingerprints are additionally namespaced "spec-…"), so no
// escaping is needed and dense and spec keys never collide.
func (e *Engine) artifactPath(fp, planDigest string, s workload.Spec) string {
	if e.dir == "" {
		return ""
	}
	name := fp + "-" + e.optTag
	if planDigest != "" {
		name += "-" + planDigest
	}
	if _, ok := s.(*workload.DenseSpec); ok {
		return filepath.Join(e.dir, name+".lrmd")
	}
	return filepath.Join(e.dir, name+".lrmk")
}

// restore reads the persisted decomposition at path and checks it
// actually factors s. The decoder is the only part that differs by
// workload kind: a dense .lrmd is checked against W, a factored .lrmk
// factor by factor (see spec.go).
func (e *Engine) restore(path string, s workload.Spec, gamma float64) (mechanism.Prepared, error) {
	if d, ok := s.(*workload.DenseSpec); ok {
		return loadPrepared(e.fs, path, d.Dense(), gamma)
	}
	return loadPreparedKron(e.fs, path, s, gamma)
}

// decomposer and kronDecomposer are implemented by Prepared instances
// whose state is a serializable decomposition (the LRM, dense and
// factored); only those can round-trip through the disk cache.
type decomposer interface {
	Decomposition() *core.Decomposition
}

type kronDecomposer interface {
	KronDecomposition() *core.KronDecomposition
}

// encoder is any artifact with a self-contained binary/JSON writer:
// dense decompositions, factored decompositions, and plan documents.
type encoder interface {
	Encode(w io.Writer) error
}

// persist writes one cache artifact — a plan document, or a Prepared's
// decomposition — atomically and durably: temp file, fsync, rename,
// directory fsync. The temp fsync *before* the rename is load-bearing —
// rename is atomic in the namespace but says nothing about the data, so
// renaming a dirty temp lets a crash leave the final name pointing at a
// truncated (even zero-length) file. A concurrent reader — another
// engine sharing the directory — never observes a half-written file,
// and a crash at any point leaves either no file or a complete one.
//
// persist reports whether the file was written. Writes are best-effort
// (a failure only costs the next process a fresh preparation), and a
// Prepared with no serializable decomposition writes nothing.
//
//lrm:sink — the cache file is on-disk state outside the process
func (e *Engine) persist(path string, v any) bool {
	switch a := v.(type) {
	case decomposer:
		v = a.Decomposition()
	case kronDecomposer:
		v = a.KronDecomposition()
	}
	enc, ok := v.(encoder)
	if !ok {
		return false
	}
	dir := filepath.Dir(path)
	tmp, err := e.fs.CreateTemp(dir, filepath.Ext(path)+"-*")
	if err != nil {
		return false
	}
	defer e.fs.Remove(tmp.Name())
	err = enc.Encode(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = e.fs.Rename(tmp.Name(), path)
	}
	return err == nil && e.fs.SyncDir(dir) == nil
}

package engine

import (
	"fmt"
	"math"

	"lrm/internal/core"
	"lrm/internal/faultfs"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/workload"
)

// One load path. Dense (Request.Workload) and implicit (Request.Spec)
// workloads are served by the same chain: prepared (LRU + singleflight)
// → load → loadPlanned/restorePlanned on a plan-aware engine → restore
// → persist, with every file named by artifactPath. A dense workload
// enters the chain as a workload.AsSpec adapter, built only on a cache
// miss; mechanism.PrepareSpec and plan.NewSpec route the adapter to the
// dense Prepare and planner, so its preparation, plan and fingerprint
// are bit-identical to the matrix path's. Spec fingerprints come from
// Spec.Digest() (namespaced "spec-…"), so the two key spaces share one
// cache directory and never collide.
//
// The workload kind matters in exactly four places: the artifact
// extension (artifactPath), the decoder restore calls (this file), the
// plan document's SpecDesc check (empty for dense plans), and row
// sharding, which exists only for matrices (shard.go). A dense LRM
// decomposition persists as .lrmd and is checked against W; a factored
// one (one small (Bᵢ,Lᵢ) pair per Kronecker factor) persists as .lrmk
// and is checked factor by factor, so the check never builds W.

// specFactorCellCap bounds the per-factor materialization used to
// validate a restored .lrmk against its spec.
const specFactorCellCap = 1 << 22

// loadPrepared restores a persisted dense decomposition and checks it
// actually factors this workload (a renamed, foreign, or tampered file
// fails closed here; the decode itself already rejects non-finite or
// corrupt payloads). This runs only on disk misses, so the extra m×n
// product is paid once per workload per process, not per answer.
func loadPrepared(fs faultfs.FS, path string, w *workload.Workload, gamma float64) (mechanism.Prepared, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := core.ReadDecomposition(f)
	if err != nil {
		return nil, err
	}
	if err := checkFactors(w.W, d.B, d.L, d.Residual, gamma); err != nil {
		return nil, fmt.Errorf("engine: cached decomposition: %w", err)
	}
	return mechanism.PreparedFromDecomposition(d)
}

// loadPreparedKron restores a persisted factored decomposition and
// checks it actually factors this spec: the spec must be a Kronecker
// product with the same factor count, and each factor's (Bᵢ,Lᵢ) must
// pass checkFactors against the materialized factor matrix. The factors
// are small (specFactorCellCap), so the check costs factor-sized GEMMs,
// never an m×n product.
func loadPreparedKron(fs faultfs.FS, path string, s workload.Spec, gamma float64) (mechanism.Prepared, error) {
	k, ok := s.(*workload.KronSpec)
	if !ok {
		return nil, fmt.Errorf("engine: %s has no factored decomposition to restore", s.Describe())
	}
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := core.ReadKronDecomposition(f)
	if err != nil {
		return nil, err
	}
	specs := k.Factors()
	if len(d.Factors) != len(specs) {
		return nil, fmt.Errorf("engine: cached decomposition has %d factors, spec has %d", len(d.Factors), len(specs))
	}
	for i, fd := range d.Factors {
		fw, err := workload.MaterializeSpec(specs[i], specFactorCellCap)
		if err != nil {
			return nil, fmt.Errorf("engine: kron factor %d: %w", i+1, err)
		}
		if err := checkFactors(fw.W, fd.B, fd.L, fd.Residual, gamma); err != nil {
			return nil, fmt.Errorf("engine: cached factor %d of %s: %w", i+1, specs[i].Describe(), err)
		}
	}
	return mechanism.PreparedFromKronDecomposition(d)
}

// checkFactors is the integrity check behind every restored
// decomposition. The shapes must match W, and since metadata can be
// forged but the actual residual cannot, ‖W−BL‖ is recomputed and must
// be consistent with the stored residual (small slack for the
// optimizer's normalized-space arithmetic) under a sanity cap — so a
// well-formed file holding someone else's (or a zeroed) factorization
// cannot silently poison every answer for this workload. The cap admits
// the configured relaxation γ, so a deliberately loose-γ deployment
// still gets disk hits for its own legitimate files.
func checkFactors(w, b, l *mat.Dense, residual, gamma float64) error {
	if b.Rows() != w.Rows() || l.Cols() != w.Cols() {
		return fmt.Errorf("%d×%d for a %d×%d workload", b.Rows(), l.Cols(), w.Rows(), w.Cols())
	}
	normW := math.Sqrt(mat.SquaredSum(w))
	maxResidual := max(0.5*normW, gamma)
	frob := math.Sqrt(mat.SquaredSum(mat.Sub(w, mat.Mul(b, l))))
	if frob > residual+1e-6*normW || residual > maxResidual*(1+1e-9) {
		return fmt.Errorf("does not factor this workload (‖W−BL‖=%.3g, stored %.3g, ‖W‖=%.3g)", frob, residual, normW)
	}
	return nil
}

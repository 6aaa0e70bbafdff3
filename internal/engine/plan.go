package engine

import (
	"fmt"
	"path/filepath"

	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/workload"
)

// Plan-aware serving (Options.Planner): instead of one process-wide
// mechanism, each workload is analyzed once and an executable plan —
// which mechanism, which tuned parameters, why — is computed, cached,
// and persisted through the same machinery as the preparations
// themselves.
//
// Cache keying. In memory a planned entry keys by the workload
// fingerprint: the planner options are fixed for the engine's lifetime
// and planning is deterministic, so the fingerprint determines the plan.
// On disk the key is richer — <fp>-<plannerTag>.plan.json for the
// decision and <fp>-<plannerTag>-<planDigest>.lrmd (.lrmk for a spec)
// for an lrm winner's decomposition — so artifacts from a differently
// configured planner, or from a plan whose decision has changed, are
// orphaned rather than served (the plan document is additionally
// self-checking: its stored digest must match the digest recomputed
// from its fields).
//
// Restart economics. A restored plan document skips the analysis and the
// candidate scoring entirely; an lrm winner then restores its
// decomposition (validated like any disk hit) instead of re-running the
// ALM, and a baseline winner re-runs only its trivial Prepare. Restores
// count as DiskHits, fresh plans as Planned.

// loadPlanned produces the Prepared and Plan for one fingerprint on a
// plan-aware engine: restore from disk when possible, otherwise run the
// planner (whose scoring already prepares the winner — planning IS
// preparing) and persist the result.
func (e *Engine) loadPlanned(fp string, s workload.Spec) (mechanism.Prepared, *plan.Plan, error) {
	path := e.planPath(fp)
	if path != "" {
		if p, pl, err := e.restorePlanned(path, fp, s); err == nil {
			e.diskHits.Add(1)
			return p, pl, nil
		}
		// A missing, corrupt, or mismatched plan document must never take
		// down serving: fall through to a fresh plan.
	}
	opts := *e.planner
	opts.Fingerprint = fp
	e.prepares.Add(1)
	if e.hook != nil {
		e.hook(fp)
	}
	pl, err := plan.NewSpec(s, opts)
	if err != nil {
		return nil, nil, err
	}
	e.planned.Add(1)
	p := pl.Prepared()
	if path != "" && e.persist(path, pl) {
		// Best-effort like every disk write: a failed decomposition write
		// leaves a valid plan document whose restore simply misses on the
		// decomposition and re-plans.
		e.persist(e.artifactPath(fp, pl.Digest(), s), p)
		e.diskWrites.Add(1)
	}
	return p, pl, nil
}

// restorePlanned rebuilds a served workload from its persisted plan: the
// decision comes from the (self-checking) document, the preparation from
// the decomposition file for an lrm winner or a fresh trivial Prepare
// for a baseline winner — zero Prepares either way.
func (e *Engine) restorePlanned(path, fp string, s workload.Spec) (mechanism.Prepared, *plan.Plan, error) {
	f, err := e.fs.Open(path)
	if err != nil {
		return nil, nil, err
	}
	pl, err := plan.Decode(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	if pl.Fingerprint != fp {
		return nil, nil, fmt.Errorf("engine: plan document is for workload %s, not %s", pl.Fingerprint, fp)
	}
	// Spec plans record the spec's descriptor; dense plans leave it
	// empty. The fingerprint already binds the digest, but the
	// descriptor is the human-auditable form, so a mismatch means a
	// tampered document.
	var desc string
	if _, dense := s.(*workload.DenseSpec); !dense {
		desc = s.Describe()
	}
	if pl.SpecDesc != desc {
		return nil, nil, fmt.Errorf("engine: plan document describes %q, request is %q", pl.SpecDesc, desc)
	}
	var p mechanism.Prepared
	if pl.Mechanism == "lrm" {
		p, err = e.restore(e.artifactPath(fp, pl.Digest(), s), s, pl.LRMOptions.Gamma)
	} else {
		var m mechanism.Mechanism
		if m, err = mechanism.ByName(pl.Mechanism, e.planner.Config); err == nil {
			p, err = mechanism.PrepareSpec(m, s, pl.Stats)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return p, pl, nil
}

// planPath returns the plan-document path for a fingerprint, or "" when
// disk caching is disabled.
func (e *Engine) planPath(fp string) string {
	if e.dir == "" {
		return ""
	}
	return filepath.Join(e.dir, fp+"-"+e.optTag+".plan.json")
}

// PlanDecision is one resident plan, as surfaced by Decisions and the
// HTTP server's GET /stats.
type PlanDecision struct {
	// Fingerprint identifies the planned workload.
	Fingerprint string `json:"fingerprint"`
	// Mechanism is the winning candidate's registry name.
	Mechanism string `json:"mechanism"`
	// Digest is the plan's content digest (see plan.Plan.Digest).
	Digest string `json:"digest"`
	// Summary is the one-line justification (winner, expected SSE,
	// margin over the runner-up, shard width).
	Summary string `json:"summary"`
}

// Decisions returns the plan decision of every planned workload still
// resident in the cache, most recently answered first. Empty on
// fixed-mechanism engines.
func (e *Engine) Decisions() []PlanDecision {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []PlanDecision
	for el := e.lru.Front(); el != nil; el = el.Next() {
		ce := el.Value.(*cacheEntry)
		if ce.pl == nil {
			continue
		}
		out = append(out, PlanDecision{
			Fingerprint: ce.fp,
			Mechanism:   ce.pl.Mechanism,
			Digest:      ce.pl.Digest(),
			Summary:     ce.pl.Summary(),
		})
	}
	return out
}

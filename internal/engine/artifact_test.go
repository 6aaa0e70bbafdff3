package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"lrm/internal/core"
	"lrm/internal/faultfs"
	"lrm/internal/mechanism"
	"lrm/internal/plan"
	"lrm/internal/workload"
)

// optionsTag is the options digest every cache file name carries,
// recomputed here from its definition so the test pins the names a
// deployed cache directory already holds.
func optionsTag(opts any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", opts)))
	return hex.EncodeToString(sum[:4])
}

// TestArtifactNames pins the exact file names of every cache artifact —
// dense and factored decompositions, plan documents, and a planned lrm
// winner's decompositions — and proves a second engine restores each
// one with zero prepares.
func TestArtifactNames(t *testing.T) {
	w := testWorkload(1) // low rank: the planner picks lrm
	s := lowRankKronSpec(31)
	lrmOpts := fastOpts()
	plannerOpts := plan.Options{LRM: fastOpts()}
	lrmTag, planTag := optionsTag(lrmOpts), optionsTag(plannerOpts)
	denseFP, specFP := core.Fingerprint(w.W), workload.SpecFingerprint(s)

	for _, tc := range []struct {
		name    string
		planned bool
		req     Request
		// want lists the cache directory's files in sorted order; in a
		// planned case the first holds "%s" for the plan digest.
		want []string
	}{
		{"dense", false, Request{Workload: w}, []string{denseFP + "-" + lrmTag + ".lrmd"}},
		{"spec", false, Request{Spec: s}, []string{specFP + "-" + lrmTag + ".lrmk"}},
		{"planned dense", true, Request{Workload: w}, []string{
			denseFP + "-" + planTag + "-%s.lrmd",
			denseFP + "-" + planTag + ".plan.json",
		}},
		{"planned spec", true, Request{Spec: s}, []string{
			specFP + "-" + planTag + "-%s.lrmk",
			specFP + "-" + planTag + ".plan.json",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var prepares atomic.Int64
			engine := func() *Engine {
				opts := Options{CacheDir: dir, PrepareHook: func(string) { prepares.Add(1) }}
				if tc.planned {
					po := plannerOpts
					opts.Planner = &po
					return newPlannedEngine(t, opts)
				}
				opts.Mechanism = mechanism.LRM{Options: lrmOpts}
				return newTestEngine(t, opts)
			}
			req := tc.req
			n := s.Domain()
			if req.Workload != nil {
				n = w.Domain()
			}
			req.Histograms, req.Eps, req.Seed = [][]float64{testHistogram(n, 2)}, 1, 3

			e1 := engine()
			got1, err := e1.Answer(req)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if tc.planned {
				ds := e1.Decisions()
				if len(ds) != 1 || ds[0].Mechanism != "lrm" {
					t.Fatalf("decisions = %+v, want one lrm winner", ds)
				}
				want = []string{fmt.Sprintf(want[0], ds[0].Digest), want[1]}
			}
			names, err := faultfs.Disk.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(names)
			if !reflect.DeepEqual(names, want) {
				t.Fatalf("cache dir holds %q, want %q", names, want)
			}

			prepares.Store(0)
			e2 := engine()
			got2, err := e2.Answer(req)
			if err != nil {
				t.Fatal(err)
			}
			if st := e2.Stats(); prepares.Load() != 0 || st.Prepares != 0 || st.DiskHits != 1 {
				t.Fatalf("second engine: %d prepares, stats %+v; want a zero-prepare disk restore", prepares.Load(), st)
			}
			if !reflect.DeepEqual(got1, got2) {
				t.Fatal("restored engine's answers differ at the same seed")
			}
		})
	}
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"

	"lrm/internal/core"
	"lrm/internal/mechanism"
	"lrm/internal/privacy"
	"lrm/internal/rng"
)

const (
	// mseFactor is how far a run's pooled squared error may sit from
	// its expectation, either way. Thousands of answers pool into every
	// run, so the sampling spread is a few per cent; a factor of 1.5
	// catches noise drawn at the wrong scale without flaking.
	mseFactor = 1.5
	// answerFactor bounds one answer's squared error against its own
	// expectation. A Laplace sum exceeding 100× its mean square is
	// vanishingly rare; a tampered or misrouted answer exceeds it.
	answerFactor = 100
	// noiselessEps is the ε at which the in-process mechanism is asked
	// for a noise-free answer B·L·x: the Laplace scale Δ/ε is ~1e-12,
	// far below the answers' rounding.
	noiselessEps = 1e12
)

// oracle holds the benchmark's own reference for a stream: the exact
// answers W·x and the expected squared error of each release, from a
// mechanism prepared in-process by the same deterministic ALM the
// server runs.
type oracle struct {
	s        *stream
	prepared []mechanism.Prepared // per workload
	fps      []string             // expected response fingerprint per workload
	cache    map[[2]int]ref
}

// ref is the reference for one (workload, histogram) pair.
type ref struct {
	exact    []float64
	expected float64 // expected SSE: Lemma 1 noise plus the structural ‖(BL−W)x‖²
}

// newOracle prepares, with mech, every workload the bodies in uses
// ask for, on one goroutine per CPU.
func newOracle(s *stream, uses []int, mech mechanism.Mechanism) (*oracle, error) {
	o := &oracle{s: s, cache: make(map[[2]int]ref)}
	o.prepared = make([]mechanism.Prepared, len(s.ws))
	o.fps = make([]string, len(s.ws))
	need := make(map[int]bool)
	for _, b := range uses {
		need[s.reqs[b].w] = true
	}
	ws := make(chan int, len(need))
	for w := range need {
		ws <- w
	}
	close(ws)
	errs := make([]error, len(s.ws))
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w := range ws {
				o.prepared[w], errs[w] = mech.Prepare(s.ws[w])
				o.fps[w] = core.Fingerprint(s.ws[w].W)
			}
		}()
	}
	wg.Wait()
	return o, errors.Join(errs...)
}

func (o *oracle) queries() int {
	return o.s.ws[0].Queries()
}

// ref returns the exact answers and expected SSE of histogram h over
// the workload of request r.
func (o *oracle) ref(r request, h int) (ref, error) {
	w := r.w
	key := [2]int{w, h}
	if v, ok := o.cache[key]; ok {
		return v, nil
	}
	p := o.prepared[w]
	if p == nil {
		return ref{}, fmt.Errorf("workload %d was not prepared for the check", w)
	}
	x := o.s.hists[h]
	exact := o.s.ws[w].Answer(x)
	bl, err := p.Answer(x, noiselessEps, rng.New(1))
	if err != nil {
		return ref{}, err
	}
	v := ref{exact: exact, expected: p.ExpectedSSE(privacy.Epsilon(eps)) + sqDist(bl, exact)}
	o.cache[key] = v
	return v, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// expectedMSE is core.expected_mse: the mean over prepared workloads of
// ExpectedSSE(ε)/m, without the structural term.
func (o *oracle) expectedMSE() float64 {
	var sum float64
	n := 0
	for _, p := range o.prepared {
		if p != nil {
			sum += p.ExpectedSSE(privacy.Epsilon(eps)) / float64(o.queries())
			n++
		}
	}
	return sum / float64(n)
}

// outcome is the checked result of a window's samples.
type outcome struct {
	attempted, failed int
	answers           int
	mse               float64 // mean (noisy − exact)² over every returned entry
	mseRatio          float64 // pooled SSE over pooled expected SSE
}

// checkSamples decodes every response of the window and checks it:
// status, shape, finiteness, fingerprint, each answer's error against
// its expectation, and the pooled error against the pooled expectation.
// Failed requests are counted, not checked; any other violation is an
// error.
func checkSamples(o *oracle, samples []sample) (outcome, error) {
	out := outcome{attempted: len(samples)}
	var sse, expected float64
	entries := 0
	m := o.queries()
	for _, smp := range samples {
		if smp.err != nil || smp.status != http.StatusOK {
			out.failed++
			continue
		}
		r := o.s.reqs[smp.body]
		var resp answerResponse
		if err := json.Unmarshal(smp.raw, &resp); err != nil {
			return out, fmt.Errorf("request %d: decoding response: %w", smp.seq, err)
		}
		if want := o.fps[r.w]; resp.Fingerprint != want {
			return out, fmt.Errorf("request %d: fingerprint %q, want %q", smp.seq, resp.Fingerprint, want)
		}
		if len(resp.Answers) != len(r.hists) {
			return out, fmt.Errorf("request %d: %d answers for %d histograms", smp.seq, len(resp.Answers), len(r.hists))
		}
		for j, a := range resp.Answers {
			if len(a) != m {
				return out, fmt.Errorf("request %d answer %d: %d entries, want %d", smp.seq, j, len(a), m)
			}
			for _, v := range a {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return out, fmt.Errorf("request %d answer %d: non-finite entry", smp.seq, j)
				}
			}
			rf, err := o.ref(r, r.hists[j])
			if err != nil {
				return out, err
			}
			e := sqDist(a, rf.exact)
			if e > answerFactor*rf.expected {
				return out, fmt.Errorf("request %d answer %d: squared error %.4g exceeds %d× its expectation %.4g",
					smp.seq, j, e, answerFactor, rf.expected)
			}
			sse += e
			expected += rf.expected
			entries += m
		}
		out.answers += len(r.hists)
	}
	if entries == 0 {
		return out, fmt.Errorf("no successful responses among %d requests", len(samples))
	}
	out.mse = sse / float64(entries)
	out.mseRatio = sse / expected
	if out.mseRatio > mseFactor || out.mseRatio < 1/mseFactor {
		return out, fmt.Errorf("pooled squared error is %.3f× its expectation, outside [1/%.1f, %.1f]",
			out.mseRatio, mseFactor, mseFactor)
	}
	return out, nil
}

// checkCounters checks the server's GET /stats counters across the
// window against what the stream sent: okRequests requests answered
// with okAnswers histograms. charged is the number of histograms the
// server answered for the stream's tenant since it started, each at ε.
func checkCounters(s *stream, before, after *serverStats, okRequests, okAnswers, charged int) error {
	d := func(a, b uint64) int { return int(b - a) }
	e0, e1 := before.Engine, after.Engine
	if got := d(e0.Requests, e1.Requests); got != okRequests {
		return fmt.Errorf("/stats: %d requests in the window, the generator had %d answered", got, okRequests)
	}
	if got := d(e0.Answers, e1.Answers); got != okAnswers {
		return fmt.Errorf("/stats: %d answers in the window, the generator received %d", got, okAnswers)
	}
	prepares := d(e0.Prepares, e1.Prepares)
	switch s.name {
	case "warm-dense":
		if prepares != 0 || d(e0.Misses, e1.Misses) != 0 {
			return fmt.Errorf("/stats: warm workload ran %d prepares and %d misses in the window", prepares, d(e0.Misses, e1.Misses))
		}
	case "cold-prepare":
		if prepares != okRequests || d(e0.Hits, e1.Hits) != 0 {
			return fmt.Errorf("/stats: %d cold requests ran %d prepares with %d hits", okRequests, prepares, d(e0.Hits, e1.Hits))
		}
		if got := d(e0.Batched, e1.Batched); got != okRequests {
			return fmt.Errorf("/stats: %d of %d cold batches took the batched path", got, okRequests)
		}
	}
	if s.tenant != "" {
		spent, want := after.spent(s.tenant), float64(charged)*eps
		if math.Abs(spent-want) > 1e-9*math.Max(1, want) {
			return fmt.Errorf("/stats: tenant %q spent ε=%.10g, %d histograms × ε=%g is %.10g", s.tenant, spent, charged, eps, want)
		}
	}
	return nil
}

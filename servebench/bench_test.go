package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"lrm/internal/mechanism"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, {100, 90, true}, {1000, 99, true}, {999, 99, false}, {19, 50, false}, {20, 50, true},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestBlockTimingsIgnoreASlowMinority(t *testing.T) {
	// 1000 requests of 10 ms, one every 10 ms, except that the 200 in
	// the third and seventh blocks take 100 ms: a median over blocks
	// reports the unslowed figures.
	var samples []sample
	var end time.Duration
	for i := 0; i < 1000; i++ {
		lat := 10 * time.Millisecond
		if b := i / 100; b == 2 || b == 6 {
			lat = 100 * time.Millisecond
		}
		end += lat
		samples = append(samples, sample{seq: i, latency: lat, end: end, status: 200})
	}
	answered := func(sample) bool { return true }
	if p50, p90 := blockTimings(samples, answered); p50 != 10 || p90 != 10 {
		t.Errorf("block timings p50 %v, p90 %v; want 10 ms both", p50, p90)
	}
	// Under 2·blockMin samples there is one block: the window itself,
	// here 50 fast requests and 100 slow ones.
	if p50, _ := blockTimings(samples[150:300], answered); p50 != 100 {
		t.Errorf("one-block p50 = %v, want 100", p50)
	}
}

func TestKeptRoundsPreferQuietOnes(t *testing.T) {
	s := time.Second
	rounds := func(steals ...float64) []round {
		var out []round
		for i, st := range steals {
			out = append(out, round{from: time.Duration(i) * s, to: time.Duration(i+1) * s, steal: st})
		}
		return out
	}
	sum := func(rs []round) (d time.Duration, froms []time.Duration) {
		for _, r := range rs {
			d += r.len()
			froms = append(froms, r.from)
		}
		return d, froms
	}
	// Enough quiet rounds: every quiet one, none of the noisy.
	d, froms := sum(keptRounds(rounds(0, 0.2, 0.01, 0.02, 0.3, 0), 4*s))
	if d != 4*s || fmt.Sprint(froms) != "[0s 2s 3s 5s]" {
		t.Errorf("kept %v from %v, want the four quiet rounds", d, froms)
	}
	// Too few: the quiet ones and then the least stolen, in time order.
	d, froms = sum(keptRounds(rounds(0.2, 0.01, 0.1, 0.3, 0.1), 3*s))
	if d != 3*s || fmt.Sprint(froms) != "[1s 2s 4s]" {
		t.Errorf("kept %v from %v, want rounds 1, 2 and 4", d, froms)
	}
	// Samples count where they lie wholly inside joined kept rounds.
	spans := joinRounds(keptRounds(rounds(0, 0, 0.5, 0), 3*s))
	if len(spans) != 2 || spans[0].to != 2*s {
		t.Fatalf("spans = %+v, want [0s,2s) and [3s,4s)", spans)
	}
	for _, c := range []struct {
		from, to time.Duration
		want     bool
	}{
		{s / 2, 3 * s / 2, true}, {3 * s / 2, 5 * s / 2, false}, {7 * s / 2, 4 * s, true}, {4 * s, 5 * s, false},
	} {
		if got := inside(spans, c.from, c.to); got != c.want {
			t.Errorf("inside(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	// A reply arriving in a kept round counts toward throughput; its
	// latency is timed only if the request also started in one.
	samples := []sample{
		{latency: s / 2, end: s},         // timed, counted
		{latency: s, end: 3 * s},         // started in the noisy round: counted only
		{latency: s / 4, end: 5 * s / 2}, // wholly in the noisy round: neither
	}
	q := quietPart(samples, rounds(0, 0, 0.5, 0), 3*s, func(sample) int { return 2 })
	if len(q.timed) != 1 || q.timed[0].end != s || q.answers != 4 || q.length != 3*s || q.quiet != 3*s {
		t.Errorf("quietPart = %+v, want one timed sample, 4 answers, 3 s kept and quiet", q)
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "serve.decode", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "core.fingerprint", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "engine.answer", Start: 50, End: 60},
		{ID: 4, Parent: 0, Name: "privacy.spend", Start: 55, End: 70}, // overlaps its sibling
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 30 - 20, 30 - 10, 10, 10, 15}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	sh := layerShares(spans)
	if sh.layer["serve"] != 0.2 || sh.layer["core"] != 0.1 || sh.name["engine.answer"] != 0.1 {
		t.Errorf("shares = %v", sh.layer)
	}
}

func TestTracerNestsCalls(t *testing.T) {
	tr := newTracer()
	tr.do("request", func() error {
		return tr.do("engine.answer", func() error {
			return tr.do("core.answer", func() error { return nil })
		})
	})
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 1 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

// smallStream is a dense stream small enough to prepare in a test.
func smallStream(t *testing.T) (*stream, *oracle) {
	t.Helper()
	src := rng.New(3)
	s := &stream{name: "warm-dense", ws: []*workload.Workload{workload.Related(8, 16, 2, src)}}
	s.hists = histograms(4, 16, src)
	for h := range s.hists {
		s.reqs = append(s.reqs, request{w: 0, hists: []int{h}})
	}
	o, err := newOracle(s, []int{0}, mechanism.LRM{})
	if err != nil {
		t.Fatal(err)
	}
	return s, o
}

// answered returns n samples carrying genuine releases of the stream's
// requests, as the server would send them.
func answered(t *testing.T, s *stream, o *oracle, n int) []sample {
	t.Helper()
	src := rng.New(11)
	var out []sample
	for i := 0; i < n; i++ {
		b := i % len(s.reqs)
		a, err := o.prepared[0].Answer(s.hists[s.reqs[b].hists[0]], privacy.Epsilon(eps), src)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(answerResponse{Answers: [][]float64{a}, Fingerprint: o.fps[0]})
		out = append(out, sample{seq: i, body: b, status: 200, raw: raw})
	}
	return out
}

func TestOutputCheckRejectsTamperedAnswer(t *testing.T) {
	s, o := smallStream(t)
	samples := answered(t, s, o, 400)
	res, err := checkSamples(o, samples)
	if err != nil {
		t.Fatalf("genuine answers rejected: %v", err)
	}
	if res.answers != 400 || res.mseRatio < 0.8 || res.mseRatio > 1.25 {
		t.Fatalf("outcome = %+v", res)
	}

	tamper := func(f func(r *answerResponse)) []sample {
		c := append([]sample(nil), samples...)
		var r answerResponse
		if err := json.Unmarshal(c[7].raw, &r); err != nil {
			t.Fatal(err)
		}
		f(&r)
		c[7].raw, _ = json.Marshal(r)
		return c
	}
	for name, bad := range map[string][]sample{
		"shifted entry":  tamper(func(r *answerResponse) { r.Answers[0][3] += 1e6 }),
		"short answer":   tamper(func(r *answerResponse) { r.Answers[0] = r.Answers[0][1:] }),
		"fingerprint":    tamper(func(r *answerResponse) { r.Fingerprint = "x" }),
		"missing answer": tamper(func(r *answerResponse) { r.Answers = nil }),
	} {
		if _, err := checkSamples(o, bad); err == nil {
			t.Errorf("%s: tampered response passed the check", name)
		}
	}
	nan := append([]sample(nil), samples...)
	nan[3].raw = bytes.Replace(nan[3].raw, []byte("["+"["), []byte("[[NaN,"), 1)
	if _, err := checkSamples(o, nan); err == nil {
		t.Error("non-finite response passed the check")
	}
	// Noise at twice the scale on every answer moves only the pooled
	// error, by 4×: the pooled check must catch it.
	scaled := append([]sample(nil), samples...)
	for i := range scaled {
		var r answerResponse
		json.Unmarshal(scaled[i].raw, &r)
		rf, _ := o.ref(s.reqs[scaled[i].body], s.reqs[scaled[i].body].hists[0])
		for j := range r.Answers[0] {
			r.Answers[0][j] = rf.exact[j] + 2*(r.Answers[0][j]-rf.exact[j])
		}
		scaled[i].raw, _ = json.Marshal(r)
	}
	if _, err := checkSamples(o, scaled); err == nil {
		t.Error("noise at twice its scale passed the check")
	}
	failed := append([]sample(nil), samples...)
	failed[0] = sample{seq: 0, status: 503}
	if res, err := checkSamples(o, failed); err != nil || res.failed != 1 {
		t.Errorf("a failed request: outcome %+v, err %v; want it counted, not rejected", res, err)
	}
}

func TestCounterCheckRejectsWrongCounter(t *testing.T) {
	stats := func(req, ans, hits, misses, prep, batched uint64, spent float64) *serverStats {
		var s serverStats
		s.Engine.Requests, s.Engine.Answers = req, ans
		s.Engine.Hits, s.Engine.Misses, s.Engine.Prepares, s.Engine.Batched = hits, misses, prep, batched
		s.Tenants = append(s.Tenants, struct {
			Tenant string  `json:"tenant"`
			Total  float64 `json:"total"`
			Spent  float64 `json:"spent"`
		}{coldTenant, 1e9, spent})
		return &s
	}
	warm := &stream{name: "warm-dense"}
	cold := &stream{name: "cold-prepare", tenant: coldTenant}
	base := stats(5, 5, 3, 2, 2, 0, 0.5)
	for _, c := range []struct {
		name  string
		s     *stream
		after *serverStats
		ok    bool
	}{
		{"warm ok", warm, stats(15, 15, 13, 2, 2, 0, 0.5), true},
		{"warm prepared", warm, stats(15, 15, 12, 3, 3, 0, 0.5), false},
		{"warm lost answers", warm, stats(15, 14, 13, 2, 2, 0, 0.5), false},
		{"cold ok", cold, stats(15, 15, 3, 12, 12, 10, 0.15), true},
		{"cold hit", cold, stats(15, 15, 4, 11, 11, 10, 0.15), false},
		{"cold unbatched", cold, stats(15, 15, 3, 12, 12, 9, 0.15), false},
		{"cold overspent", cold, stats(15, 15, 3, 12, 12, 10, 0.16), false},
	} {
		err := checkCounters(c.s, base, c.after, 10, 10, 15)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEmittedNamesMatchBenchmarkJSON checks every name the benchmark
// emits against the name grammar, and against the lists in the
// repository's BENCHMARK.json.
func TestEmittedNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	listed := func(xs []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range xs {
			m[x.Name] = x.Unit
		}
		return m
	}
	check := func(kind string, emitted []metricName, listed map[string]string) {
		seen := map[string]bool{}
		for _, n := range emitted {
			if !nameRE.MatchString(n.name) || seen[n.name] {
				t.Errorf("%s name %q is malformed or repeated", kind, n.name)
			}
			seen[n.name] = true
			if u, ok := listed[n.name]; !ok || u != n.unit {
				t.Errorf("%s metric %q (unit %q) is not in BENCHMARK.json as such (unit %q)", kind, n.name, n.unit, u)
			}
		}
		if len(seen) != len(listed) {
			t.Errorf("%s: the benchmark emits %d metrics, BENCHMARK.json lists %d", kind, len(seen), len(listed))
		}
	}
	check("end-to-end", endToEndNames, listed(bj.EndToEnd))
	check("per-layer", perLayerMetrics(), listed(bj.PerLayer))
	var wl []string
	for _, w := range bj.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wl, workloadNames)
	}
}

func TestPackageSharesFromPprofTop(t *testing.T) {
	top := []byte(`File: servebench
Type: samples
Showing nodes accounting for 20, 100% of 20 total
      flat  flat%   sum%        cum   cum%
        10 50.00% 50.00%         10 50.00%  lrm/internal/mat.(*Dense).Rows
         6 30.00% 80.00%          8 40.00%  encoding/json.(*decodeState).object
         3 15.00% 95.00%          3 15.00%  runtime.mallocgc
         1  5.00%   100%          1  5.00%  net/http.(*conn).serve
`)
	shares, err := sharesFromTop(top)
	if err != nil {
		t.Fatal(err)
	}
	for pkg, want := range map[string]float64{"mat": 0.5, "json": 0.3, "runtime": 0.15, "other": 0.05, "core": 0} {
		if got := shares[pkg]; math.Abs(got-want) > 1e-12 {
			t.Errorf("share of %s = %v, want %v", pkg, got, want)
		}
	}
	if _, err := sharesFromTop([]byte("not a pprof listing")); err == nil {
		t.Error("sharesFromTop accepted output without function rows")
	}
}

func TestPackageSharesFromCPUProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command to run pprof")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	var sink []byte
	for time.Now().Before(deadline) {
		sink, _ = json.Marshal(map[string][]float64{"x": {1.5, 2.25, 3}})
	}
	pprof.StopCPUProfile()
	_ = sink
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := packageShares(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, pkg := range profiledPackages {
		sum += shares[pkg]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	// The loop's samples fall in encoding/json, strconv, reflect and the
	// runtime (under -race, mostly in the detector's frames, "other").
	if shares["json"]+shares["strconv"]+shares["reflect"]+shares["runtime"] == 0 {
		t.Errorf("no samples of a JSON-encoding loop attributed to its packages: %v", shares)
	}
}

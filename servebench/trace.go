package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"lrm/internal/benchsuite"
	"lrm/internal/core"
	"lrm/internal/engine"
	"lrm/internal/mat"
	"lrm/internal/mechanism"
	"lrm/internal/optimize"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// replayFor bounds the traced in-process replay; the run's timed window
// bounds it too.
const replayFor = 5 * time.Second

// span is one timed call into a layer. Spans of one request share Req;
// set-up spans have Req −1. Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // −1 for a root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span's time belongs to: the span name up to its
// first dot ("serve.decode" → "serve").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer records spans in memory. Calls nest on one goroutine: a span
// begun while another is open becomes its child.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	req   int
	open  []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), req: -1} }

func (t *tracer) begin(name string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: now})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, in the order of spans. Children outside spans are
// not seen.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// tracedLRM is the Low-Rank Mechanism with a span around each call into
// core: it is what the traced engine prepares and answers with, so the
// engine's own time is its span minus these.
type tracedLRM struct {
	t      *tracer
	lrm    mechanism.LRM
	mu     sync.Mutex
	iters  []int  // ALM outer iterations per prepare
	lShape [2]int // shape of the first prepare's L
}

func (m *tracedLRM) Name() string { return m.lrm.Name() }

func (m *tracedLRM) Prepare(w *workload.Workload) (mechanism.Prepared, error) {
	var p mechanism.Prepared
	err := m.t.do("core.decompose", func() (err error) {
		p, err = m.lrm.Prepare(w)
		return err
	})
	if err != nil {
		return nil, err
	}
	if d, ok := p.(interface{ Decomposition() *core.Decomposition }); ok {
		m.record(d.Decomposition())
	}
	return &tracedPrepared{p: p, t: m.t, one: "core.answer"}, nil
}

// record notes one prepare's ALM runs: core.outer_iters sums the outer
// iterations of every run the prepare made.
func (m *tracedLRM) record(ds ...*core.Decomposition) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.iters) == 0 {
		m.lShape = [2]int{ds[0].L.Rows(), ds[0].L.Cols()}
	}
	it := 0
	for _, d := range ds {
		it += d.OuterIterations
	}
	m.iters = append(m.iters, it)
}

type tracedPrepared struct {
	p   mechanism.Prepared
	t   *tracer
	one string // span name of a single answer
}

func (p *tracedPrepared) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) (out []float64, err error) {
	err = p.t.do(p.one, func() error {
		out, err = p.p.Answer(x, eps, src)
		return err
	})
	return out, err
}

func (p *tracedPrepared) AnswerMany(x *mat.Dense, eps privacy.Epsilon, src *rng.Source) (out *mat.Dense, err error) {
	ba, ok := p.p.(mechanism.BatchAnswerer)
	if !ok {
		return nil, errors.New("mechanism has no batched path")
	}
	err = p.t.do("core.answer_many", func() error {
		out, err = ba.AnswerMany(x, eps, src)
		return err
	})
	return out, err
}

func (p *tracedPrepared) ExpectedSSE(eps privacy.Epsilon) float64 { return p.p.ExpectedSSE(eps) }

// pipeline replays requests in-process through the public functions
// lrmserve's handler calls, in the handler's order, with a span around
// each. The engine has no accountant: the tenant charge is made by a
// span of its own just before the engine call, so that it is timed
// apart from the engine; the server's engine makes it inside the call,
// at its commit point after any prepare.
type pipeline struct {
	t    *tracer
	eng  *engine.Engine
	acct *privacy.Accountant
}

func (p *pipeline) replay(body []byte) error {
	root := p.t.begin("request")
	defer p.t.end(root)
	var req answerRequest
	var w *workload.Workload
	var fp string
	err := p.t.do("serve.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return err
		}
		if err := privacy.Epsilon(req.Eps).Validate(); err != nil {
			return err
		}
		w = &workload.Workload{W: mat.FromRows(req.Workload), Name: "http"}
		if !w.W.IsFinite() {
			return errors.New("non-finite workload")
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.t.do("core.fingerprint", func() error {
		fp = core.Fingerprint(w.W)
		return nil
	})
	if req.Tenant != "" {
		if err := p.t.do("privacy.spend", func() error {
			return p.acct.Spend(req.Tenant, privacy.Epsilon(req.Eps*float64(len(req.Histograms))))
		}); err != nil {
			return err
		}
	}
	var answers [][]float64
	if err := p.t.do("engine.answer", func() (err error) {
		answers, err = p.eng.Answer(engine.Request{
			Workload:    w,
			Histograms:  req.Histograms,
			Eps:         privacy.Epsilon(req.Eps),
			Fingerprint: fp,
		})
		return err
	}); err != nil {
		return err
	}
	return p.t.do("serve.encode", func() error {
		_, err := json.Marshal(answerResponse{Answers: answers, Fingerprint: fp})
		return err
	})
}

type metricName struct{ name, unit string }

// perLayerMetrics lists every per-layer metric with its unit; a traced
// run emits all of them, zero where a layer does no work on the
// workload.
func perLayerMetrics() []metricName {
	out := append([]metricName(nil), perLayerNames...)
	for _, pkg := range profiledPackages {
		out = append(out, metricName{"cpu_share." + pkg, "share"})
	}
	return out
}

var perLayerNames = []metricName{
	{"serve.decode_ms", "ms"}, {"serve.body_kb", "KiB"}, {"serve.encode_ms", "ms"}, {"serve.transport_ms", "ms"},
	{"core.fingerprint_ms", "ms"}, {"core.decompose_s", "s"}, {"core.outer_iters", "count"},
	{"optimize.project_l1_us", "us"}, {"mat.gemm_gflops", "GFLOP/s"}, {"core.expected_mse", "count_sq"},
	{"core.answer_many_ms", "ms"}, {"core.kron_answer_us", "us"},
	{"privacy.spend_ms", "ms"}, {"privacy.grants", "count"},
	{"engine.answer_ms", "ms"}, {"engine.hit_ratio", "ratio"}, {"engine.prepares", "count"}, {"engine.batched", "count"},
	{"workload.parse_spec_us", "us"}, {"workload.spec_fingerprint_us", "us"},
	{"mat.calibrate_ms", "ms"},
	{"runtime.gc_cpu_share", "share"}, {"runtime.alloc_mb_per_request", "MiB"},
	{"share.serve", "share"}, {"share.core", "share"}, {"share.engine", "share"}, {"share.privacy", "share"}, {"share.workload", "share"},
	{"predictions.held", "count"}, {"predictions.checked", "count"},
}

// traceRun runs the traced in-process replay of st's window and returns
// every per-layer metric. e2eP50 is the untraced run's p50 latency in
// ms, which the replay's pipeline p50 is subtracted from.
func traceRun(cfg config, st *stream, runDir string, e2e *e2eRun, o *oracle, e2eP50 float64) (map[string]metric, error) {
	out := make(map[string]metric)
	all := perLayerMetrics()
	set := func(name string, v float64) {
		for _, n := range all {
			if n.name == name {
				out[name] = metric{v, n.unit}
				return
			}
		}
		panic("unlisted per-layer metric " + name)
	}
	for _, n := range all {
		set(n.name, 0)
	}

	var cal []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		benchsuite.CalibrateKernels()
		cal = append(cal, ms(time.Since(t0)))
	}
	set("mat.calibrate_ms", median(cal))

	t := newTracer()
	mech := &tracedLRM{t: t}
	eng, err := engine.New(engine.Options{Mechanism: mech})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	p := &pipeline{t: t, eng: eng}
	if st.tenant != "" {
		acct, err := privacy.OpenAccountant(privacy.AccountantOptions{
			Dir:    filepath.Join(runDir, "trace-budget"),
			Totals: map[string]privacy.Epsilon{st.tenant: 1e9},
		})
		if err != nil {
			return nil, err
		}
		defer acct.Close()
		p.acct = acct
	}
	for _, b := range append(append([]int(nil), st.setup...), st.warmup[0]) {
		if err := p.replay(st.bodies[b]); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
	}

	// The timed part of the replay: the window's stream from its start.
	stats0 := eng.Stats()
	rt0 := readRuntime()
	profPath := filepath.Join(runDir, "replay.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	limit := min(replayFor, time.Duration(cfg.seconds)*time.Second)
	first := len(t.spans)
	start := time.Now()
	var bodyBytes, n int
	for _, b := range st.window {
		if time.Since(start) >= limit {
			break
		}
		t.req = n
		if err := p.replay(st.bodies[b]); err != nil {
			pprof.StopCPUProfile()
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		bodyBytes += len(st.bodies[b])
		n++
	}
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	stats1 := eng.Stats()
	replayed := t.spans[first:]

	if err := writeSpans(cfg, t.spans); err != nil {
		return nil, err
	}

	p50 := func(name string, unit time.Duration) float64 {
		var xs []float64
		for _, s := range replayed {
			if s.Name == name {
				xs = append(xs, float64(s.dur())/float64(unit))
			}
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	set("serve.decode_ms", p50("serve.decode", time.Millisecond))
	set("serve.encode_ms", p50("serve.encode", time.Millisecond))
	set("serve.body_kb", float64(bodyBytes)/float64(n)/1024)
	set("serve.transport_ms", e2eP50-p50("request", time.Millisecond))
	set("core.fingerprint_ms", p50("core.fingerprint", time.Millisecond))
	set("core.answer_many_ms", p50("core.answer_many", time.Millisecond))
	set("privacy.spend_ms", p50("privacy.spend", time.Millisecond))
	set("engine.answer_ms", p50("engine.answer", time.Millisecond))

	var decompose []float64
	for _, s := range t.spans {
		if s.Name == "core.decompose" {
			decompose = append(decompose, s.dur().Seconds())
		}
	}
	set("core.decompose_s", median(decompose))
	its := make([]float64, len(mech.iters))
	for i, v := range mech.iters {
		its[i] = float64(v)
	}
	set("core.outer_iters", median(its))
	set("core.expected_mse", o.expectedMSE())
	rows, cols := mech.lShape[0], mech.lShape[1]
	set("optimize.project_l1_us", projectL1Micro(rows, cols))
	set("mat.gemm_gflops", gemmMicro(o.queries(), rows, cols))
	parse, digest, answer, err := specMicro()
	if err != nil {
		return nil, err
	}
	set("workload.parse_spec_us", parse)
	set("workload.spec_fingerprint_us", digest)
	set("core.kron_answer_us", answer)

	// Engine counters of the untraced window, from the server's /stats.
	e0, e1 := e2e.before.Engine, e2e.after.Engine
	if lookups := (e1.Hits - e0.Hits) + (e1.Misses - e0.Misses); lookups > 0 {
		set("engine.hit_ratio", float64(e1.Hits-e0.Hits)/float64(lookups))
	}
	set("engine.prepares", float64(e1.Prepares-e0.Prepares))
	set("engine.batched", float64(e1.Batched-e0.Batched))
	if st.tenant != "" {
		spent := e2e.after.spent(st.tenant) - e2e.before.spent(st.tenant)
		set("privacy.grants", float64(int(spent/eps+0.5)))
	}
	if d := stats1.Prepares - stats0.Prepares; st.name != "cold-prepare" && d != 0 {
		return nil, fmt.Errorf("traced replay of a warm workload ran %d prepares", d)
	}

	busy := rt1.busy - rt0.busy
	if busy > 0 {
		set("runtime.gc_cpu_share", (rt1.gc-rt0.gc)/busy)
	}
	set("runtime.alloc_mb_per_request", (rt1.allocs-rt0.allocs)/float64(n)/(1<<20))

	shares := layerShares(replayed)
	for _, l := range []string{"serve", "core", "engine", "privacy", "workload"} {
		set("share."+l, shares.layer[l])
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}
	cpu, err := packageShares(profPath)
	if err != nil {
		return nil, fmt.Errorf("reading the replay's CPU profile: %w", err)
	}
	for _, pkg := range profiledPackages {
		set("cpu_share."+pkg, cpu[pkg])
	}

	held, checked := 0, 0
	fmt.Fprintf(os.Stderr, "servebench: traced %s: %d requests, pipeline p50 %.3f ms, e2e p50 %.3f ms\n",
		st.name, n, p50("request", time.Millisecond), e2eP50)
	for _, l := range []string{"serve", "core", "engine", "privacy", "workload"} {
		fmt.Fprintf(os.Stderr, "  share.%-9s %.3f\n", l, shares.layer[l])
	}
	for _, pr := range predictions[st.name] {
		ok := pr.holds(predCtx{m: out, sh: shares, e2eP50: e2eP50})
		checked++
		verdict := "REFUTED"
		if ok {
			held++
			verdict = "held"
		}
		fmt.Fprintf(os.Stderr, "  prediction %-8s %s\n", verdict, pr.text)
	}
	set("predictions.held", float64(held))
	set("predictions.checked", float64(checked))
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// shares is the share of traced request time each layer, and each span
// name, spent in its own code (self time).
type shares struct {
	layer, name map[string]float64
}

func layerShares(spans []span) shares {
	self := selfTimes(spans)
	var total time.Duration
	sh := shares{layer: map[string]float64{}, name: map[string]float64{}}
	for i, s := range spans {
		if s.Parent < 0 {
			total += s.dur()
			continue
		}
		sh.layer[s.layer()] += float64(self[i])
		sh.name[s.Name] += float64(self[i])
	}
	if total > 0 {
		for k := range sh.layer {
			sh.layer[k] /= float64(total)
		}
		for k := range sh.name {
			sh.name[k] /= float64(total)
		}
	}
	return sh
}

// prediction is one claim of README.md's prediction table, checked
// against the traced run.
type prediction struct {
	text  string
	holds func(c predCtx) bool
}

// predCtx is what a prediction is checked against.
type predCtx struct {
	m      map[string]metric
	sh     shares
	e2eP50 float64 // ms
}

var predictions = map[string][]prediction{
	"warm-dense": {
		{"decode and fingerprint take >= 80% of the request", func(c predCtx) bool {
			return c.sh.name["serve.decode"]+c.sh.name["core.fingerprint"] >= 0.8
		}},
		{"ALM does no work in the window (0 prepares)", func(c predCtx) bool {
			return c.m["engine.prepares"].Value == 0
		}},
		{"the accountant does no work (0 grants)", func(c predCtx) bool {
			return c.m["privacy.grants"].Value == 0
		}},
		{"every lookup hits the cache", func(c predCtx) bool {
			return c.m["engine.hit_ratio"].Value == 1
		}},
	},
	"cold-prepare": {
		{"ALM takes >= 80% of the request", func(c predCtx) bool {
			return c.sh.name["core.decompose"] >= 0.8
		}},
		{"request decode is ~0 (< 10% of the request)", func(c predCtx) bool {
			return c.sh.name["serve.decode"] < 0.1
		}},
		{"batched answering is a small share (< 10%)", func(c predCtx) bool {
			return c.sh.name["core.answer_many"] < 0.1
		}},
		{"no lookup hits the cache", func(c predCtx) bool {
			return c.m["engine.hit_ratio"].Value == 0
		}},
		{"the tenant's WAL spend is negligible (< 1% of the request)", func(c predCtx) bool {
			return c.sh.layer["privacy"] < 0.01
		}},
	},
}

// runtimeSample is the replay process's runtime/metrics counters.
type runtimeSample struct{ busy, gc, allocs float64 }

func readRuntime() runtimeSample {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ss)
	f := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{busy: f(0) - f(1), gc: f(2), allocs: f(3)}
}

// writeSpans writes the run's spans, one JSON object a line, under
// .bench_build/traces.
func writeSpans(cfg config, spans []span) error {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// projectL1Micro times optimize.ProjectColumnsL1 on an r×n matrix, the
// shape of L in the workload's ALM, and returns the median in µs.
func projectL1Micro(r, n int) float64 {
	src := rng.New(7)
	orig := src.NormalVec(r*n, 1)
	data := make([]float64, len(orig))
	var xs []float64
	for i := 0; i < 200; i++ {
		copy(data, orig)
		t0 := time.Now()
		optimize.ProjectColumnsL1(data, r, n, 1)
		xs = append(xs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return median(xs)
}

// gemmMicro times mat.MulTo on the ALM's two product shapes for an
// m×n workload at rank r, B·L (m×r·r×n) and Bᵀ·W (r×m·m×n), and returns
// GFLOP/s of the median round.
func gemmMicro(m, r, n int) float64 {
	src := rng.New(9)
	b := mat.NewFromData(m, r, src.NormalVec(m*r, 1))
	l := mat.NewFromData(r, n, src.NormalVec(r*n, 1))
	bt := mat.NewFromData(r, m, src.NormalVec(r*m, 1))
	w := mat.NewFromData(m, n, src.NormalVec(m*n, 1))
	d1, d2 := mat.New(m, n), mat.New(r, n)
	flops := 2 * float64(m*r*n) * 2
	var xs []float64
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		mat.MulTo(d1, b, l)
		mat.MulTo(d2, bt, w)
		xs = append(xs, time.Since(t0).Seconds())
	}
	return flops / median(xs) / 1e9
}

// specMicro times the handler's calls for an implicit spec request on
// specString: workload.ParseSpec, workload.SpecFingerprint and the
// prepared Kronecker mechanism's Answer of one histogram. It returns
// the median of each in µs.
func specMicro() (parse, digest, answer float64, err error) {
	sp, err := workload.ParseSpec(specString)
	if err != nil {
		return 0, 0, 0, err
	}
	p, err := mechanism.PrepareSpec(mechanism.LRM{}, sp, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	x := rng.New(11).NormalVec(sp.Domain(), 100)
	src := rng.New(13)
	var ps, ds, as []float64
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := workload.ParseSpec(specString); err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		workload.SpecFingerprint(sp)
		t2 := time.Now()
		if _, err := p.Answer(x, eps, src); err != nil {
			return 0, 0, 0, err
		}
		ps, ds, as = append(ps, us(t1.Sub(t0))), append(ds, us(t2.Sub(t1))), append(as, us(time.Since(t2)))
	}
	return median(ps), median(ds), median(as), nil
}

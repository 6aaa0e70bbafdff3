// Command servebench is the repository's end-to-end benchmark. It
// launches the real lrmserve binary, drives it over loopback HTTP with
// closed-loop clients (each waits for its reply before sending again),
// checks every answer against the benchmark's own reference, and prints
// one JSON result line. With -trace 1 it also replays the same request
// stream in-process, timing calls into each module's public functions,
// and reports per-layer metrics instead of the end-to-end ones.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash servebench/run.sh --workload warm-dense --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, metrics and predictions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lrm/internal/mechanism"
)

// endToEndNames lists the metrics an untraced run reports.
var endToEndNames = []metricName{
	{"setup_s", "s"}, {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"}, {"answers_per_s", "1/s"},
	{"cpu_ms_per_answer", "ms"}, {"mse", "count_sq"}, {"peak_rss_mb", "MiB"},
}

// A run starts the server at least minSetups times, and more until
// setupFor has been spent starting it (at most maxSetups); setup_s is
// the median, and the last start serves the timed window. A start that
// prepares no warm workload takes tens of milliseconds, so it is
// repeated dozens of times.
const (
	minSetups = 3
	maxSetups = 41
	setupFor  = 2 * time.Second
)

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	root      string // checkout root; scratch files go under root/.bench_build
	serverBin string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced in-process replay and report per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout root")
	flag.StringVar(&cfg.serverBin, "server", "", "lrmserve binary built from this checkout")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.serverBin == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: need -server, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	res, meta, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	// The metadata line, then the result line, which must come last.
	var out []byte
	for _, v := range []any{map[string]any{"meta": meta}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		out = append(append(out, line...), '\n')
	}
	if _, err := os.Stdout.Write(out); err != nil {
		os.Exit(1)
	}
}

// run performs one benchmark run. A failed output check yields a result
// with Correct false; only failures to run at all return an error.
func run(cfg config) (*result, map[string]any, error) {
	st, err := newStream(cfg.workload, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "runs"), 0o755); err != nil {
		return nil, nil, err
	}
	runDir, err := os.MkdirTemp(filepath.Join(build, "runs"), cfg.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)

	steal0 := readSteal()
	e2e, err := measure(cfg, st, runDir)
	if err != nil {
		return nil, nil, err
	}
	steal1 := readSteal()
	answered := func(x sample) bool { return x.err == nil && x.status == 200 }
	q := quietPart(e2e.samples, e2e.rounds, time.Duration(cfg.seconds)*time.Second, func(x sample) int {
		if !answered(x) {
			return 0
		}
		return st.answersPer(x.body)
	})
	meta := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"kernels":    e2e.after.Kernels,
		"samples":    len(e2e.samples),
		// The window's length, its quiet part, and the part the
		// timings are taken over with the samples wholly inside it.
		"window_s":      e2e.rounds[len(e2e.rounds)-1].to.Seconds(),
		"quiet_s":       q.quiet.Seconds(),
		"timed_s":       q.length.Seconds(),
		"timed_samples": len(q.timed),
		// Fewer than minTail timed samples beyond the p90 (a slowed
		// cold run) still report it, flagged here.
		"p90_supported": tailSupported(len(q.timed), 90),
		// Time the hypervisor gave this guest's CPUs to others during
		// set-up and the whole window, as a share of all CPU time.
		"steal_share": steal1.since(steal0),
	}
	res := &result{Attempted: len(e2e.samples), Metrics: map[string]metric{}}

	o, err := newOracle(st, append(append([]int(nil), st.setup...), e2e.sent()...), mechanism.LRM{})
	if err != nil {
		return nil, nil, err
	}
	out, checkErr := checkSamples(o, e2e.samples)
	res.Failed = out.failed
	if checkErr == nil {
		okReq := out.attempted - out.failed
		checkErr = checkCounters(st, e2e.before, e2e.after, okReq, out.answers, e2e.chargedBefore+out.answers)
	}
	if checkErr == nil && out.failed > 0 {
		checkErr = fmt.Errorf("%d of %d requests failed", out.failed, out.attempted)
	}
	res.Correct = checkErr == nil
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "servebench: output check failed:", checkErr)
	}

	p50, p90 := blockTimings(q.timed, answered)
	if !cfg.trace {
		v := map[string]float64{
			"setup_s":           median(e2e.setupS),
			"latency_p50_ms":    p50,
			"latency_p90_ms":    p90,
			"answers_per_s":     float64(q.answers) / q.length.Seconds(),
			"cpu_ms_per_answer": e2e.cpuS * 1000 / float64(out.answers),
			"mse":               out.mse,
			"peak_rss_mb":       e2e.peakRSSMB,
		}
		for _, n := range endToEndNames {
			res.Metrics[n.name] = metric{v[n.name], n.unit}
		}
		return res, meta, nil
	}
	layers, err := traceRun(cfg, st, runDir, e2e, o, p50)
	if err != nil {
		return nil, nil, err
	}
	res.Metrics = layers
	return res, meta, nil
}

// e2eRun is what the timed window measured.
type e2eRun struct {
	setupS        []float64
	samples       []sample
	rounds        []round // the window's, tagged with their steal share
	cpuS          float64
	peakRSSMB     float64
	before, after *serverStats
	// chargedBefore counts the tenant-charged histograms answered
	// before the window (set-up and warm-up).
	chargedBefore int
}

// sent returns the bodies the window sent.
func (r *e2eRun) sent() []int {
	out := make([]int, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.body
	}
	return out
}

// measure starts the server several times (each in a fresh directory,
// each timed from process start to every warm workload prepared), then
// runs the discarded warm-up and the timed window against the last one.
func measure(cfg config, st *stream, runDir string) (*e2eRun, error) {
	r := &e2eRun{}
	var srv *server
	var spent time.Duration
	for i := 0; srv == nil; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("server%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		s, err := startServer(cfg.serverBin, filepath.Join(dir, "lrmserve.log"), st.serverArgs(dir))
		if err != nil {
			return nil, err
		}
		for _, b := range st.setup {
			if _, err := s.post(st.bodies[b]); err != nil {
				s.stop()
				return nil, fmt.Errorf("set-up request: %w", err)
			}
		}
		took := time.Since(t0)
		spent += took
		r.setupS = append(r.setupS, took.Seconds())
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupFor) {
			srv = s
		} else {
			s.stop()
		}
	}
	defer srv.stop()
	url := srv.base + "/answer"

	warm := closedLoop(url, st.bodies, st.warmup, st.conns, time.Now(), func(el time.Duration) bool { return el >= warmupFor })
	for _, s := range warm {
		if s.err != nil || s.status != 200 {
			return nil, fmt.Errorf("warm-up request failed: status %d: %v %s", s.status, s.err, s.raw)
		}
	}
	if st.tenant != "" {
		for _, b := range st.setup {
			r.chargedBefore += st.answersPer(b)
		}
		for _, s := range warm {
			r.chargedBefore += st.answersPer(s.body)
		}
	}

	var err error
	if r.before, err = srv.stats(); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	// The window runs until it has cfg.seconds of quiet rounds, or for
	// windowCap times that (see quiet.go).
	dur := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	steal := watchSteal(start)
	r.samples = closedLoop(url, st.bodies, st.window, st.conns, start, func(el time.Duration) bool {
		return el >= time.Duration(windowCap*float64(dur)) || steal.quietTime() >= dur
	})
	r.rounds = steal.finish()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	r.cpuS = cpu1 - cpu0
	if r.after, err = srv.stats(); err != nil {
		return nil, err
	}
	if r.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if len(r.samples) == 0 {
		return nil, errors.New("the window sent no requests")
	}
	return r, nil
}

// cpuModel returns the host CPU's model name from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

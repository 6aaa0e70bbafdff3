package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a shared host the hypervisor gives this guest's CPUs to other
// guests in episodes of ten seconds to a minute, and while it does,
// every timing slows by up to 2× (a warm p90 of 15 ms reads 32 ms at a
// steal share of 0.2). The contention belongs to the host, not to the
// program, so the timed window is cut into rounds of roundLen, each
// tagged with its steal share, and the timings are taken over quiet
// rounds only: the window runs until it has --seconds of rounds whose
// steal share is at most quietSteal, or until windowCap times that has
// elapsed, and then keeps the --seconds of rounds with the least steal.
// (windowCap bounds a run on a host that stays contended: at 2.5 and
// --seconds 15, ~50 runs still fit in an hour.)
const (
	roundLen   = time.Second
	quietSteal = 0.03
	windowCap  = 2.5
)

// cpuTimes is the all-CPU line of /proc/stat: steal and total ticks.
type cpuTimes struct{ steal, total float64 }

func readSteal() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i >= 8 { // guest time is already counted in user time
			break
		}
		t.total += x
		if i == 7 {
			t.steal = x
		}
	}
	return t
}

// since returns the share of CPU time stolen between t0 and t.
func (t cpuTimes) since(t0 cpuTimes) float64 {
	if t.total <= t0.total {
		return 0
	}
	return (t.steal - t0.steal) / (t.total - t0.total)
}

// round is one slice of a timed window, in time since the window
// started, and the share of CPU time the hypervisor stole during it.
type round struct {
	from, to time.Duration
	steal    float64
}

func (r round) len() time.Duration { return r.to - r.from }

// stealLog tags a window's rounds with their steal share as they end.
type stealLog struct {
	start  time.Time
	mu     sync.Mutex
	rounds []round
	quiet  time.Duration
	stop   chan struct{}
	done   chan struct{}
}

// watchSteal starts tagging rounds of a window that began at start.
func watchSteal(start time.Time) *stealLog {
	l := &stealLog{start: start, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		prev, from := readSteal(), time.Duration(0)
		tick := time.NewTicker(roundLen)
		defer tick.Stop()
		for {
			stopped := false
			select {
			case <-tick.C:
			case <-l.stop:
				stopped = true
			}
			cur, to := readSteal(), time.Since(l.start)
			r := round{from: from, to: to, steal: cur.since(prev)}
			l.mu.Lock()
			l.rounds = append(l.rounds, r)
			if r.steal <= quietSteal {
				l.quiet += r.len()
			}
			l.mu.Unlock()
			if stopped {
				return
			}
			prev, from = cur, to
		}
	}()
	return l
}

// quietTime returns the total length of the quiet rounds so far.
func (l *stealLog) quietTime() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quiet
}

// finish closes the last, partial round and returns every round.
func (l *stealLog) finish() []round {
	close(l.stop)
	<-l.done
	return l.rounds
}

// keptRounds returns the rounds the timings are taken over: every quiet
// round if they add up to dur, otherwise the least-stolen rounds (ties
// to the earlier) until they do, in time order.
func keptRounds(rounds []round, dur time.Duration) []round {
	byQuiet := append([]round(nil), rounds...)
	sort.SliceStable(byQuiet, func(i, j int) bool { return byQuiet[i].steal < byQuiet[j].steal })
	var kept []round
	var total time.Duration
	for _, r := range byQuiet {
		if total >= dur && r.steal > quietSteal {
			break
		}
		kept = append(kept, r)
		total += r.len()
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].from < kept[j].from })
	return kept
}

// joinRounds merges adjacent rounds into spans.
func joinRounds(rounds []round) []round {
	var spans []round
	for _, r := range rounds {
		if n := len(spans); n > 0 && spans[n-1].to == r.from {
			spans[n-1].to = r.to
		} else {
			spans = append(spans, r)
		}
	}
	return spans
}

// inside reports whether [from, to] lies within one of the spans.
func inside(spans []round, from, to time.Duration) bool {
	for _, r := range spans {
		if from >= r.from && to <= r.to {
			return true
		}
	}
	return false
}

// quiet is the part of a window the latency and throughput metrics
// are taken over.
type quiet struct {
	timed   []sample      // the samples wholly inside the kept rounds
	answers int           // histograms answered in replies that arrived in them
	length  time.Duration // of the kept rounds
	quiet   time.Duration // of every quiet round of the window
}

// quietPart keeps the rounds keptRounds picks for a window of dur and
// the samples they hold; answers(s) is how many histograms sample s had
// answered. If no sample lies wholly inside the kept rounds (requests
// longer than a round, between noisy ones), every sample is timed.
func quietPart(samples []sample, rounds []round, dur time.Duration, answers func(sample) int) quiet {
	var q quiet
	for _, r := range rounds {
		if r.steal <= quietSteal {
			q.quiet += r.len()
		}
	}
	spans := joinRounds(keptRounds(rounds, dur))
	for _, r := range spans {
		q.length += r.len()
	}
	for _, s := range samples {
		if inside(spans, s.end, s.end) {
			q.answers += answers(s)
		}
		if inside(spans, s.end-s.latency, s.end) {
			q.timed = append(q.timed, s)
		}
	}
	if len(q.timed) == 0 {
		q.timed = samples
	}
	return q
}

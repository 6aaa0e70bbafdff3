package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"lrm/internal/dataset"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// Shapes and traffic of the three workloads. Each one loads a different
// layer of lrmserve and leaves the others idle; README.md gives the
// reasons and the predictions that follow from them.
const (
	// eps is the per-histogram release budget of every request, the
	// smallest of the paper's Figure 2–3 settings. At 0.1 the structural
	// error ‖(BL−W)x‖² of the occasional cold workload whose ALM stops
	// short of γ rivals the noise (the histograms' counts run to 10⁵ per
	// cell), and mse would swing with the draw of workloads.
	eps = 0.01

	// warm-dense: two keep-alive connections sending dense W plus one
	// histogram, W drawn from a few WRelated workloads prepared in set-up.
	// The expected error of one WRelated draw varies by ~8% from draw to
	// draw; the mean of six keeps mse steady across seeds. At 64×256 a
	// body is ~300 KiB, so JSON decode still dwarfs the engine, while the
	// six prepares of each set-up stay under a second apiece.
	warmRows, warmCols, warmRank = 64, 256, 8
	warmWorkloads                = 6
	warmHistograms               = 8

	// cold-prepare: one connection on one durable tenant; every request
	// carries a never-seen WRelated W and a batch of histograms answered
	// through the batched fused path, so each request runs one full ALM
	// prepare, and one WAL append and fsync charges its batch. The
	// shape is small enough (~0.12 s a prepare on a 2-core Xeon) that a
	// 15 s window collects the 100 requests a p90 needs.
	coldRows, coldCols, coldRank = 32, 96, 4
	coldBatch                    = 64
	coldHistograms               = 16
	// coldMaxRequests bounds the distinct workloads a run can send; the
	// server's cache is sized above it so nothing is evicted.
	coldMaxRequests = 450
	coldCacheSize   = "512"
	coldTenant      = "bench"
	// coldTenantCap cannot run out: a run grants well under 10⁵
	// histograms at eps each.
	coldTenantCap = "1e9"

	// specString is the implicit 2-D prefix spec whose parse,
	// fingerprint and Kronecker answer a traced run times.
	specString = "kron:prefix(32)xprefix(32)"

	// warmupFor is the discarded warm-up before the timed window.
	warmupFor = time.Second
)

var workloadNames = []string{"warm-dense", "cold-prepare"}

// answerRequest mirrors lrmserve's POST /answer body, field for field:
// the traced replay decodes it as the handler does, with unknown fields
// disallowed.
type answerRequest struct {
	Workload   [][]float64 `json:"workload,omitempty"`
	Spec       string      `json:"spec,omitempty"`
	Histograms [][]float64 `json:"histograms"`
	Eps        float64     `json:"eps"`
	Budget     float64     `json:"budget,omitempty"`
	Seed       int64       `json:"seed,omitempty"`
	Tenant     string      `json:"tenant,omitempty"`
}

// answerResponse mirrors lrmserve's POST /answer response.
type answerResponse struct {
	Answers     [][]float64 `json:"answers"`
	Fingerprint string      `json:"fingerprint"`
}

// request is what one pre-encoded body asks: which workload (an index
// into stream.ws) and which histograms.
type request struct {
	w     int
	hists []int
}

// stream is a workload's seeded inputs: everything the server receives,
// generated and encoded before the server starts.
type stream struct {
	name   string
	conns  int
	ws     []*workload.Workload // dense workloads, indexed by request.w
	tenant string
	hists  [][]float64
	reqs   []request // one per body
	bodies [][]byte

	setup  []int // bodies sent once per server start to prepare warm workloads
	warmup []int // discarded warm-up order
	window []int // timed-window order
}

// serverArgs returns the lrmserve flags the workload needs beyond the
// defaults; dir is a fresh directory for this server start.
func (s *stream) serverArgs(dir string) []string {
	if s.name == "cold-prepare" {
		return []string{"-cache-size", coldCacheSize,
			"-budget-dir", filepath.Join(dir, "budget"), "-tenant-eps", coldTenant + "=" + coldTenantCap}
	}
	return nil
}

// newStream generates the named workload's inputs from seed.
func newStream(name string, seed int64) (*stream, error) {
	src := rng.New(seed)
	s := &stream{name: name, conns: 2}
	switch name {
	case "warm-dense":
		for i := 0; i < warmWorkloads; i++ {
			s.ws = append(s.ws, workload.Related(warmRows, warmCols, warmRank, src.Split()))
		}
		s.hists = histograms(warmHistograms, warmCols, src)
		for w := range s.ws {
			for h := range s.hists {
				s.reqs = append(s.reqs, request{w: w, hists: []int{h}})
			}
		}
		for w := range s.ws {
			s.setup = append(s.setup, w*len(s.hists))
		}
		s.warmup = randomOrder(len(s.reqs), 1<<12, src)
		s.window = randomOrder(len(s.reqs), 1<<16, src)
	case "cold-prepare":
		s.conns, s.tenant = 1, coldTenant
		s.hists = histograms(coldHistograms, coldCols, src)
		// Body 0 is the warm-up request; bodies 1.. are the window's,
		// each with a workload no earlier request carried.
		for i := 0; i <= coldMaxRequests; i++ {
			s.ws = append(s.ws, workload.Related(coldRows, coldCols, coldRank, src.Split()))
			hs := make([]int, coldBatch)
			for j := range hs {
				hs[j] = src.Intn(len(s.hists))
			}
			s.reqs = append(s.reqs, request{w: i, hists: hs})
		}
		s.warmup = []int{0}
		for i := 1; i <= coldMaxRequests; i++ {
			s.window = append(s.window, i)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for _, r := range s.reqs {
		body, err := json.Marshal(s.body(r))
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
	}
	return s, nil
}

func (s *stream) body(r request) answerRequest {
	req := answerRequest{Workload: rows(s.ws[r.w]), Eps: eps, Tenant: s.tenant}
	for _, h := range r.hists {
		req.Histograms = append(req.Histograms, s.hists[h])
	}
	return req
}

func rows(w *workload.Workload) [][]float64 {
	out := make([][]float64, w.Queries())
	for i := range out {
		out[i] = w.W.RawRow(i)
	}
	return out
}

// histograms draws k integer-count histograms of n cells from the
// paper-shaped generators, alternating Search Logs and Net Trace and
// merging each to the domain size. (Social Network's one huge bin would
// let the structural error of the relaxed decomposition swamp the
// noise the mse metric tracks.)
func histograms(k, n int, src *rng.Source) [][]float64 {
	out := make([][]float64, k)
	for i := range out {
		var d *dataset.Dataset
		if i%2 == 0 {
			d = dataset.SearchLogs(dataset.SearchLogsSize, src.Split())
		} else {
			d = dataset.NetTrace(dataset.NetTraceSize, src.Split())
		}
		out[i] = d.Merge(n).Counts
	}
	return out
}

// randomOrder returns n draws of body indices in [0, k).
func randomOrder(k, n int, src *rng.Source) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = src.Intn(k)
	}
	return out
}

// answersPer returns the number of histograms body i asks for.
func (s *stream) answersPer(i int) int { return len(s.reqs[i].hists) }

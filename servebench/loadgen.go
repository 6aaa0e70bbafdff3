package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request of a closed-loop run. The response stays raw
// until the window has ended, so the generator does no JSON work while
// it is being timed.
type sample struct {
	seq     int // position in the request stream
	body    int // index of the pre-encoded body sent
	latency time.Duration
	end     time.Duration // completion, since the loop started
	status  int
	raw     []byte
	err     error
}

// closedLoop drives conns keep-alive connections, each sending its next
// request only after the previous reply has been read in full. Request
// k of the stream sends bodies[order[k]]. No request starts once
// len(order) requests have started, so a stream of distinct bodies is
// never repeated, nor once done(time since start) holds. It returns the
// samples in stream order, with end times since start.
func closedLoop(url string, bodies [][]byte, order []int, conns int, start time.Time, done func(time.Duration) bool) []sample {
	// Buffers larger than any body or reply: each request leaves in one
	// write and each reply arrives in few reads, so the generator's
	// syscalls (and the server wake-ups they cause) do not scale with
	// body size.
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		WriteBufferSize:     1 << 20,
		ReadBufferSize:      1 << 16,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []sample
		wg   sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) || done(time.Since(start)) {
					break
				}
				s := send(client, url, bodies[order[k]])
				s.seq, s.body, s.end = k, order[k], time.Since(start)
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func send(client *http.Client, url string, body []byte) sample {
	t0 := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{latency: time.Since(t0), err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return sample{latency: time.Since(t0), status: resp.StatusCode, raw: raw, err: err}
}

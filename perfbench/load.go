package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's concurrency: two callers, each sending its
// next request only when the previous answer has arrived — the shape of
// build drivers waiting on llvm-serve, sized to a 2-vCPU machine.
const clients = 2

// call is one request of the fixed sequence.
type call struct {
	path string // endpoint and query
	body []byte
	prog int // index into inputs.progs
}

// reply is what the generator saw for one call.
type reply struct {
	status int
	err    error
	cache  string // X-Cache
	body   []byte
	lat    time.Duration
}

// failed reports a request that did not complete with 200.
func (r *reply) failed() bool { return r.err != nil || r.status != http.StatusOK }

// newClient returns the generator's HTTP client: at most `clients`
// connections to the front, bodies sent uncompressed, and gzip responses
// accepted (the transport asks for gzip and inflates transparently).
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		},
		Timeout: 60 * time.Second,
	}
}

// traceID names timed request i of a pass; the front adopts it and
// carries it to the node, so wrapped handlers and the flight recorder can
// join their records to the client's. Warm-up requests carry warmID.
func traceID(i int) string { return fmt.Sprintf("pb-%d", i) }

func warmID(i int) string { return fmt.Sprintf("warm-%d", i) }

// drive replays calls in order through a closed loop of `clients`
// callers and returns every reply plus the wall time from the first send
// to the last answer. Which caller sends which request depends on timing;
// what each request carries does not. id names request i; spans, when
// non-nil, records a client span per request.
func drive(hc *http.Client, base string, calls []call, id func(int) string, spans *spanLog) ([]reply, time.Duration) {
	out := make([]reply, len(calls))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				out[i] = send(hc, base, calls[i], i, id(i), c, spans)
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(t0)
}

func send(hc *http.Client, base string, cl call, i int, id string, client int, spans *spanLog) reply {
	req, err := http.NewRequest(http.MethodPost, base+cl.path, bytes.NewReader(cl.body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Trace-Id", id)
	sp := spans.begin(i, client, "client", "client "+strings.SplitN(cl.path, "?", 2)[0])
	t := time.Now()
	resp, err := hc.Do(req)
	var rp reply
	if err == nil {
		rp.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rp.status = resp.StatusCode
		rp.cache = resp.Header.Get("X-Cache")
	}
	rp.lat = time.Since(t)
	rp.err = err
	spans.end(sp)
	return rp
}

// latencyQuantiles returns the p50 and p90 latency in ms. A failed or
// refused request sorts last, so it counts as missing any latency limit.
func latencyQuantiles(rs []reply) (p50, p90 float64) {
	ms := make([]float64, len(rs))
	for i := range rs {
		ms[i] = float64(rs[i].lat.Nanoseconds()) / 1e6
		if rs[i].failed() {
			ms[i] = math.Inf(1)
		}
	}
	sort.Float64s(ms)
	return quantile(ms, 0.50), quantile(ms, 0.90)
}

// quantile is the nearest-rank quantile of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

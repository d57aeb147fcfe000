package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// spanLog records the benchmark's own spans during a traced run: a
// client span per request, the front and node handler spans around the
// handlers the benchmark mounts, and one span per public-function call in
// the in-process replay. Spans stay in memory — in the log, for self-time
// arithmetic, and in an obs.Tracer, for the Chrome trace file — and are
// written out when the run ends. A nil *spanLog records nothing.
type spanLog struct {
	mu   sync.Mutex
	tr   *obs.Tracer
	recs []spanRec
	// last maps (request, role) to the request's most recent span of that
	// role, so a handler span can find its parent.
	last map[spanKey]int
	// tid maps a request to the track (client number) it was sent on.
	tid map[int]int
}

type spanKey struct {
	req  int
	role string
}

type spanRec struct {
	req    int
	role   string // "client", "front", "node", "replay" or "call"
	name   string
	parent int // index into recs, -1 for a root
	start  time.Time
	dur    time.Duration
	obs    obs.Span
}

// replayTID is the trace track of the in-process replay.
const replayTID = 10

func newSpanLog() *spanLog {
	tr := obs.NewTracer()
	tr.SetProcess(1, "perfbench")
	tr.SetMaxEvents(1 << 22)
	return &spanLog{tr: tr, last: map[spanKey]int{}, tid: map[int]int{}}
}

// parentRole is the role whose span encloses a span of the given role.
var parentRole = map[string]string{"front": "client", "node": "front", "call": "replay"}

// begin opens a span for request req on track tid (-1 = the request's
// own track) and returns its handle.
func (l *spanLog) begin(req, tid int, role, name string) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if tid < 0 {
		tid = l.tid[req]
	} else {
		l.tid[req] = tid
	}
	parent := -1
	pctx := obs.SpanContext{Trace: traceID(req)}
	if pr, ok := parentRole[role]; ok {
		if p, ok := l.last[spanKey{req, pr}]; ok {
			parent = p
			pctx = l.recs[p].obs.Context()
		}
	}
	rec := spanRec{req: req, role: role, name: name, parent: parent, start: time.Now()}
	rec.obs = l.tr.StartSpan(name, role, tid, pctx)
	l.recs = append(l.recs, rec)
	l.last[spanKey{req, role}] = len(l.recs) - 1
	return len(l.recs) - 1
}

// end closes span h.
func (l *spanLog) end(h int) {
	if l == nil || h < 0 {
		return
	}
	now := time.Now()
	l.mu.Lock()
	rec := &l.recs[h]
	rec.dur = now.Sub(rec.start)
	sp := rec.obs
	l.mu.Unlock()
	sp.End()
}

// wrap returns the handler mounted for role: it records a span around h
// for each request carrying a benchmark trace id.
func (l *spanLog) wrap(role string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Trace-Id")
		req, err := strconv.Atoi(strings.TrimPrefix(id, "pb-"))
		if err != nil || !strings.HasPrefix(id, "pb-") {
			h.ServeHTTP(w, r)
			return
		}
		sp := l.begin(req, -1, role, role+" "+r.URL.Path)
		h.ServeHTTP(w, r)
		l.end(sp)
	})
}

// durations returns, per request, the duration of its span of role
// (zero when absent).
func (l *spanLog) durations(role string, n int) []time.Duration {
	out := make([]time.Duration, n)
	for _, rec := range l.recs {
		if rec.role == role && rec.req < n {
			out[rec.req] = rec.dur
		}
	}
	return out
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name  string
	count int
	total time.Duration // summed span time
	self  time.Duration // summed self time
}

// selfTimes computes every span's self time — its duration minus the
// durations of its children — aggregated by span name, and returns the
// names of spans whose self time came out negative (a child not nested
// inside its parent).
func (l *spanLog) selfTimes() ([]selfRow, []string) {
	child := make([]time.Duration, len(l.recs))
	for _, rec := range l.recs {
		if rec.parent >= 0 {
			child[rec.parent] += rec.dur
		}
	}
	rows := map[string]*selfRow{}
	var negative []string
	for i, rec := range l.recs {
		self := rec.dur - child[i]
		if self < 0 {
			negative = append(negative, fmt.Sprintf("%s (request %d, %v)", rec.name, rec.req, self))
		}
		r := rows[rec.name]
		if r == nil {
			r = &selfRow{name: rec.name}
			rows[rec.name] = r
		}
		r.count++
		r.total += rec.dur
		r.self += self
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out, negative
}

// writeSelfTable prints the self-time table, per request of the pass.
func writeSelfTable(w io.Writer, rows []selfRow, requests int) {
	fmt.Fprintf(w, "%-44s %8s %12s %12s\n", "span", "count", "ms/request", "self ms/req")
	for _, r := range rows {
		fmt.Fprintf(w, "%-44s %8d %12.4f %12.4f\n", r.name, r.count,
			ms(r.total)/float64(requests), ms(r.self)/float64(requests))
	}
}

// writeTrace writes the Chrome trace-event JSON (Perfetto, llvm-trace).
func (l *spanLog) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

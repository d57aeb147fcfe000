// Command perfbench is the repository's benchmark: seeded, fixed-sequence
// closed-loop workloads driven through a two-node llvm-serve cluster and
// its front, all in one process, with every answer checked against a
// tier-0 reference. See WORKLOADS.md.
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 a separate traced run of the same
// sequence reports the per-layer metrics and writes a Chrome trace and a
// self-time table under <workdir>/traces.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a --trace 0 run sets up from scratch;
// setup_s is the median, and the last set-up is the one measured.
const setupRepeats = 5

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

type bench struct {
	wl      string
	seed    int64
	seconds int
	workdir string
	runDir  string
	start   time.Time

	res      result
	problems []string // run-level failures (digest, determinism, trace)
}

func main() {
	start := time.Now()
	b := &bench{start: start}
	flag.StringVar(&b.wl, "workload", "", "serve-hit, compile-miss or run-hot")
	flag.Int64Var(&b.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&b.seconds, "seconds", pinnedSeconds, "sizes the timed phase: the run sends a fixed number of requests per second")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&b.workdir, "workdir", ".bench_build", "directory for stores, traces and recorded counts")
	flag.Parse()
	if _, ok := requestsPerSecond[b.wl]; !ok || b.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-hit|compile-miss|run-hot --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// The execution tier is the daemon's own choice, never the caller's
	// environment's.
	os.Unsetenv("LLVM_INTERP_TIER")
	b.runDir = filepath.Join(b.workdir, "runs", fmt.Sprintf("%s-%d", b.wl, os.Getpid()))
	b.res.Metrics = map[string]metric{}
	var err error
	if *trace == 1 {
		err = b.traced()
	} else {
		err = b.endToEnd()
	}
	os.RemoveAll(b.runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	if len(b.problems) > 0 {
		b.res.Failed += len(b.problems)
	}
	b.res.Correct = b.res.Failed == 0
	line, _ := json.Marshal(b.res)
	fmt.Println(string(line))
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) problem(format string, args ...interface{}) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// env is one set-up: inputs built, cluster running, caches warm.
type env struct {
	wl    string
	in    *inputs
	ring  *ring
	hc    *http.Client
	calls []call
	// warm holds the warm-up's artifact per program (serve-hit: the first
	// response every repeat hit must equal; run-hot: the /run bodies).
	warm map[int][]byte
}

func (e *env) close() {
	e.hc.CloseIdleConnections()
	e.ring.close()
}

// The request paths: compiles through the linktime pipeline with raw
// bytecode answers, and profiled runs.
const (
	compilePath = "/compile?pipeline=linktime&raw=1"
	runPath     = "/run?profile=1"
)

// setup generates and builds the inputs, launches the ring with fresh
// stores under dir and warms it: serve-hit compiles every hot module
// once; run-hot compiles and runs every artifact once.
func (b *bench) setup(dir string, spans *spanLog) (*env, error) {
	in, err := makeInputs(b.wl, b.seed, b.seconds)
	if err != nil {
		return nil, err
	}
	if err := in.compile(); err != nil {
		return nil, err
	}
	var wrap func(string, http.Handler) http.Handler
	if spans != nil {
		wrap = spans.wrap
	}
	rg, err := launchRing(dir, len(in.seq)+2*len(in.progs)+16, wrap)
	if err != nil {
		return nil, err
	}
	e := &env{wl: b.wl, in: in, ring: rg, hc: newClient(), warm: map[int][]byte{}}
	if err := e.warmUp(); err != nil {
		e.close()
		return nil, err
	}
	for _, p := range in.seq {
		cl := call{path: compilePath, body: in.progs[p].body, prog: p}
		switch {
		case b.wl == "run-hot":
			cl.path, cl.body = runPath, e.warm[p]
		case in.progs[p].check:
			cl.path = "/check"
		}
		e.calls = append(e.calls, cl)
	}
	return e, nil
}

func (e *env) warmUp() error {
	if e.wl != "serve-hit" && e.wl != "run-hot" {
		return nil
	}
	var warm []call
	for p, pr := range e.in.progs {
		warm = append(warm, call{path: compilePath, body: pr.body, prog: p})
	}
	rs, _ := drive(e.hc, e.ring.frontURL, warm, warmID, nil)
	for i, r := range rs {
		if r.failed() || r.cache != "miss" {
			return fmt.Errorf("warm-up compile of %s: status %d, X-Cache %q, %v", e.in.progs[i].name, r.status, r.cache, r.err)
		}
		e.warm[i] = r.body
	}
	if e.wl != "run-hot" {
		return nil
	}
	for i := range warm {
		warm[i].path, warm[i].body = runPath, e.warm[i]
	}
	rs, _ = drive(e.hc, e.ring.frontURL, warm, warmID, nil)
	for i, r := range rs {
		if r.failed() {
			return fmt.Errorf("warm-up run of %s: status %d, %v", e.in.progs[i].name, r.status, r.err)
		}
	}
	return nil
}

// pass is one timed replay of the sequence over HTTP.
type pass struct {
	replies []reply
	wall    time.Duration
	cpu     time.Duration
	gcShare float64
	allocMB float64
	rssMB   float64

	hitRatio, dedupRatio float64
	retries              float64
	storeEntries         int
	indexKB              float64
}

// measure runs the timed phase.
func (e *env) measure(spans *spanLog) *pass {
	runtime.GC()
	st0, _ := e.ring.storeTotals()
	dedup0, compiles0 := e.ring.nodeCounters()
	retries0 := counter(e.ring.front.Metrics(), "llvm_front_retries_total")
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, busy0 := gcCPU()
	cpu0 := processCPU()

	p := &pass{}
	p.replies, p.wall = drive(e.hc, e.ring.frontURL, e.calls, traceID, spans)

	p.cpu = processCPU() - cpu0
	gc1, busy1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	p.rssMB = peakRSSMB()
	n := float64(len(e.calls))
	if busy1 > busy0 {
		p.gcShare = (gc1 - gc0) / (busy1 - busy0)
	}
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / n
	st1, index := e.ring.storeTotals()
	if l := (st1.ArtifactHits + st1.ArtifactMisses) - (st0.ArtifactHits + st0.ArtifactMisses); l > 0 {
		p.hitRatio = float64(st1.ArtifactHits-st0.ArtifactHits) / float64(l)
	}
	dedup1, compiles1 := e.ring.nodeCounters()
	if compiles1 > compiles0 {
		p.dedupRatio = (dedup1 - dedup0) / (compiles1 - compiles0)
	}
	p.retries = (counter(e.ring.front.Metrics(), "llvm_front_retries_total") - retries0) / n
	p.storeEntries = st1.Modules + st1.Artifacts + st1.Profiles + st1.Summaries
	p.indexKB = float64(index) / 1024
	return p
}

func (p *pass) ok() int {
	n := 0
	for i := range p.replies {
		if !p.replies[i].failed() {
			n++
		}
	}
	return n
}

// endToEnd is the --trace 0 run.
func (b *bench) endToEnd() error {
	var setups []float64
	var e *env
	for k := 0; k < setupRepeats; k++ {
		t := time.Now()
		if k == 0 {
			t = b.start // the first set-up counts from process start
		}
		dir := filepath.Join(b.runDir, fmt.Sprintf("setup%d", k))
		var err error
		if e, err = b.setup(dir, nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		if k < setupRepeats-1 {
			e.close()
			os.RemoveAll(dir)
		}
	}
	p := e.measure(nil)
	v := e.check(p.replies)
	e.close()

	b.res.Attempted = len(p.replies)
	b.res.Failed = v.failures()
	for _, note := range v.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", note)
	}
	p50, p90 := latencyQuantiles(p.replies)
	ok := float64(p.ok())
	b.set("latency_p50_ms", p50, "ms")
	b.set("latency_p90_ms", p90, "ms")
	b.set("throughput_rps", ok/p.wall.Seconds(), "1/s")
	b.set("cpu_ms_per_req", ratio(ms(p.cpu), ok), "ms")
	b.set("setup_s", median(setups), "s")
	b.set("peak_rss_mb", p.rssMB, "MB")
	kb, steps, warnings := v.means(e.calls)
	b.set("artifact_kb", kb, "KB")
	b.set("steps_per_run", steps, "count")
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests in %.2fs, set-ups %.3v s, warnings/module %.4f, dedup ratio %.4f\n",
		b.wl, b.seed, len(p.replies), p.wall.Seconds(), setups, warnings, p.dedupRatio)

	b.checkDigest(e.in)
	b.checkCounts("e2e", map[string]float64{
		"artifact_kb":            kb,
		"steps_per_run":          steps,
		"warnings_per_module":    warnings,
		"lifelong.hit_ratio":     p.hitRatio,
		"lifelong.store_entries": float64(p.storeEntries),
	})
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// executableDigest is a short SHA-256 of the running binary ("unknown"
// when it cannot be read).
func executableDigest() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6])
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPU returns the runtime's estimates of GC CPU seconds and of all
// non-idle CPU seconds.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// checkDigest fails the run when the workload generator no longer makes
// the pinned source sets: for this run's seed when it is pinned, and
// always for the default seed, so a change to internal/workload cannot
// silently change the traffic of any seed.
func (b *bench) checkDigest(in *inputs) {
	pins := pinnedDigests[b.wl]
	if want, ok := pins[b.seed]; ok && b.seconds == pinnedSeconds && in.digest != want {
		b.problem("%s seed %d: generated source set %s, pinned %s", b.wl, b.seed, in.digest, want)
	}
	def, err := makeInputs(b.wl, defaultSeed, pinnedSeconds)
	if err != nil {
		b.problem("%v", err)
		return
	}
	if want := pins[defaultSeed]; def.digest != want {
		b.problem("%s default seed %d: generated source set %s, pinned %s", b.wl, defaultSeed, def.digest, want)
	}
}

// checkCounts compares the run's counts with those a previous run of the
// same benchmark binary, workload, seed and size recorded in the work
// directory, and records them when none exist. The traffic is fixed by
// the seed, so any difference is a failure. The binary's digest is part
// of the key: another build of the program may legitimately produce other
// counts.
func (b *bench) checkCounts(mode string, counts map[string]float64) {
	dir := filepath.Join(b.workdir, "counts")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-s%d-%s.json", executableDigest(), b.wl, b.seed, b.seconds, mode))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(data, &prev); err != nil {
			b.problem("reading %s: %v", path, err)
			return
		}
		var names []string
		for k := range counts {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if pv, ok := prev[k]; ok && pv != counts[k] {
				b.problem("count %s = %v, an earlier run with seed %d recorded %v", k, counts[k], b.seed, pv)
			}
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.problem("%v", err)
		return
	}
	data, _ := json.MarshalIndent(counts, "", "  ")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.problem("%v", err)
	}
}

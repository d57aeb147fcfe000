package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/interp"
	"repro/internal/lifelong"
	"repro/internal/passes"
	"repro/internal/profile"
	"repro/internal/tooling"
)

// The in-process replay sends the same request sequence again, this time
// as calls: one at a time, in handler order, on scratch stores placed by
// the same ring, it calls the public functions the front and the node
// handlers call and times each call from outside. A call's time belongs
// to the layer whose function was called; work a call does inside another
// layer (the encode inside Store.PutModule) stays with the caller.

// replayer holds the replay's scratch cluster state and its sums.
type replayer struct {
	ring   *cluster.Ring
	stores map[string]*lifelong.Store // by peer
	// progs keeps each module resident with its shared translation cache,
	// as the daemon's resident-program cache does.
	progs map[string]*resident
	spans *spanLog

	// record is false during warm-up: calls run but are not summed.
	record bool
	req    int
	sum    map[string]float64 // metric -> total over recorded requests
	// per-pass wall time, keyed by PassResult.Pass
	passMS map[string]float64

	// Counts the determinism check compares with the HTTP passes.
	hits, lookups int
	bumps         int
	// warmTranslation is the translation counters after warm-up.
	warmTranslation interp.ProgramStats
}

type resident struct {
	mod  *core.Module
	prog *interp.Program
}

// replayOut is what one replayed request produced.
type replayOut struct {
	artifact []byte // /compile
	steps    int64  // /run
	diags    int    // /check
	errors   int
}

func newReplayer(dir string, peers []string, spans *spanLog) (*replayer, error) {
	rg, err := cluster.NewRing(peers, 0)
	if err != nil {
		return nil, err
	}
	rp := &replayer{ring: rg, stores: map[string]*lifelong.Store{}, progs: map[string]*resident{},
		spans: spans, sum: map[string]float64{}, passMS: map[string]float64{}}
	for i, p := range peers {
		st, err := lifelong.Open(filepath.Join(dir, fmt.Sprintf("replay%d", i)), 0)
		if err != nil {
			return nil, err
		}
		rp.stores[p] = st
	}
	return rp, nil
}

// timed runs f as one call of the request being replayed, recording a
// span and adding its time to metric.
func (rp *replayer) timed(metric, name string, f func()) {
	if !rp.record {
		f()
		return
	}
	h := rp.spans.begin(rp.req, replayTID, "call", name)
	t := time.Now()
	f()
	d := time.Since(t)
	rp.spans.end(h)
	rp.sum[metric] += ms(d)
}

// timedAlloc is timed plus the call's heap allocation, from MemStats
// deltas taken outside the timed interval.
func (rp *replayer) timedAlloc(metric, allocMetric, name string, f func()) {
	if !rp.record {
		f()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rp.timed(metric, name, f)
	runtime.ReadMemStats(&m1)
	rp.sum[allocMetric] += float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
}

func (rp *replayer) add(metric string, v float64) {
	if rp.record {
		rp.sum[metric] += v
	}
}

// one replays request i: the front's calls, then the owner node's, then
// the front's relay of the answer. relay is the answer's body for /run
// and /check, whose JSON the node writes and the replay does not build;
// /compile relays the replayed artifact.
func (rp *replayer) one(i int, cl call, relay []byte) (*replayOut, error) {
	rp.req = i
	if rp.record {
		rp.add("bytecode.request_kb", float64(len(cl.body))/1024)
	}
	endpoint := cl.path
	if q := strings.IndexByte(endpoint, '?'); q >= 0 {
		endpoint = endpoint[:q]
	}

	// Front: read, parse, re-encode canonically, hash, gzip for the peer
	// hop.
	root := rp.root("replay front " + endpoint)
	var m *core.Module
	var body, canonical []byte
	var hash string
	var err error
	hr := httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(cl.body))
	rp.timed("cluster.front_read_ms", "front lifelong.ReadBody", func() { body, err = lifelong.ReadBody(hr, tooling.MaxInputSize) })
	if err != nil {
		return nil, err
	}
	rp.timed("cluster.front_decode_ms", "front tooling.LoadModuleBytes", func() { m, err = tooling.LoadModuleBytes("request", body) })
	if err != nil {
		return nil, err
	}
	rp.timed("cluster.front_encode_ms", "front bytecode.Encode", func() { canonical, err = bytecode.Encode(m) })
	if err != nil {
		return nil, err
	}
	rp.timed("bytecode.hash_bytes_ms", "front bytecode.HashBytes", func() { hash = bytecode.HashBytes(canonical) })
	var gz bytes.Buffer
	rp.timed("cluster.front_gzip_ms", "front gzip request", func() {
		zw := gzip.NewWriter(&gz)
		zw.Write(canonical)
		zw.Close()
	})
	rp.spans.end(root)

	st := rp.stores[rp.ring.Owner(hash)]
	root = rp.root("replay node " + endpoint)
	out, err := rp.node(st, endpoint, gz.Bytes())
	rp.spans.end(root)
	if err != nil {
		return out, err
	}
	if out.artifact != nil {
		relay = out.artifact
	}
	// Front: relay the answer, gzipped for the client.
	root = rp.root("replay front relay")
	rp.timed("cluster.front_gzip_ms", "front lifelong.Compress", func() { gzipResponse(relay) })
	rp.spans.end(root)
	return out, nil
}

func (rp *replayer) root(name string) int {
	if !rp.record {
		return -1
	}
	return rp.spans.begin(rp.req, replayTID, "replay", name)
}

// node replays the owner node's handler for endpoint on store st.
func (rp *replayer) node(st *lifelong.Store, endpoint string, gzBody []byte) (*replayOut, error) {
	// readModule: gunzip, decode, verify.
	hr := httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(gzBody))
	hr.Header.Set("Content-Encoding", "gzip")
	var body []byte
	var err error
	rp.timed("lifelong.gunzip_ms", "lifelong.ReadBody", func() { body, err = lifelong.ReadBody(hr, tooling.MaxInputSize) })
	if err != nil {
		return nil, err
	}
	var m *core.Module
	rp.timedAlloc("bytecode.decode_ms", "bytecode.decode_alloc_kb", "tooling.LoadModuleBytes", func() { m, err = tooling.LoadModuleBytes("request", body) })
	if err != nil {
		return nil, err
	}
	rp.timed("core.verify_ms", "core.Verify", func() { err = core.Verify(m) })
	if err != nil {
		return nil, err
	}
	switch endpoint {
	case "/compile":
		return rp.compile(st, m)
	case "/run":
		return rp.run(st, m)
	case "/check":
		return rp.check(st, m)
	}
	return nil, fmt.Errorf("replay: unknown endpoint %s", endpoint)
}

// compile mirrors handleCompile and CompileWith with pipeline=linktime.
func (rp *replayer) compile(st *lifelong.Store, m *core.Module) (*replayOut, error) {
	const spec = "linktime"
	var hash, modHash string
	var canonical []byte
	var err error
	rp.timed("bytecode.module_hash_ms", "bytecode.ModuleHash", func() { hash, err = bytecode.ModuleHash(m) })
	if err != nil {
		return nil, err
	}
	var epoch int64
	rp.timed("lifelong.store_get_profile_ms", "Store.GetProfile", func() {
		if f, ok := st.GetProfile(hash); ok {
			epoch = f.Epoch
		}
	})
	// CompileWith.
	rp.timed("lifelong.store_put_module_ms", "Store.PutModule", func() { modHash, canonical, err = st.PutModule(m) })
	if err != nil {
		return nil, err
	}
	if modHash != hash {
		return nil, fmt.Errorf("replay: PutModule hash %s != ModuleHash %s", modHash, hash)
	}
	rp.timed("lifelong.store_get_profile_ms", "Store.GetProfile", func() {
		if f, ok := st.GetProfile(hash); ok {
			epoch = f.Epoch
		}
	})
	var data []byte
	var hit bool
	if epoch > 0 {
		rp.timed("lifelong.store_get_artifact_ms", "Store.GetArtifact", func() { data, hit = st.GetArtifact(hash, spec, epoch) })
	}
	if !hit {
		rp.timed("lifelong.store_get_artifact_ms", "Store.GetArtifact", func() { data, hit = st.GetArtifact(hash, spec, 0) })
	}
	if rp.record {
		rp.lookups++
		if hit {
			rp.hits++
		}
	}
	if !hit {
		if data, err = rp.pipeline(st, hash, canonical, spec); err != nil {
			return nil, err
		}
	}
	// The response: raw bytecode through the gzip writer the front's
	// transport asked for.
	rp.timed("lifelong.gzip_ms", "lifelong.Compress", func() { gzipResponse(data) })
	return &replayOut{artifact: data}, nil
}

// pipeline is CompileWith's miss path.
func (rp *replayer) pipeline(st *lifelong.Store, hash string, canonical []byte, spec string) ([]byte, error) {
	var work *core.Module
	var err error
	rp.timedAlloc("bytecode.decode_ms", "bytecode.decode_alloc_kb", "bytecode.Decode", func() { work, err = bytecode.Decode(canonical) })
	if err != nil {
		return nil, err
	}
	pm := passes.NewPassManager()
	if err := tooling.AddPipelineSpec(pm, spec); err != nil {
		return nil, err
	}
	var sumData []byte
	var sumOK bool
	rp.timed("lifelong.store_get_summaries_ms", "Store.GetSummaries", func() { sumData, sumOK = st.GetSummaries(hash) })
	if sumOK {
		if pt, derr := dsa.Decode(sumData, work); derr == nil {
			pm.AM = analysis.NewManager()
			pm.AM.ModuleExt(dsa.Key, work, func(*core.Module) interface{} { return pt })
		}
	}
	rp.timed("passes.pipeline_ms", "PassManager.Run", func() { _, err = pm.Run(work) })
	if err != nil {
		return nil, err
	}
	if rp.record {
		for _, r := range pm.Results {
			rp.passMS[r.Pass] += ms(r.Duration)
			rp.sum["passes.changed"] += float64(r.Changed)
			rp.sum["passes.analysis_hits"] += float64(r.AnalysisHits)
			rp.sum["passes.analysis_lookups"] += float64(r.AnalysisHits + r.AnalysisMisses)
		}
	}
	rp.timed("core.verify_ms", "core.Verify", func() { err = core.Verify(work) })
	if err != nil {
		return nil, err
	}
	var data []byte
	rp.timedAlloc("bytecode.encode_ms", "bytecode.encode_alloc_kb", "bytecode.Encode", func() { data, err = bytecode.Encode(work) })
	if err != nil {
		return nil, err
	}
	rp.timed("lifelong.store_put_artifact_ms", "Store.PutArtifact", func() { err = st.PutArtifact(hash, spec, 0, data) })
	return data, err
}

// run mirrors handleRun with profiling on.
func (rp *replayer) run(st *lifelong.Store, m *core.Module) (*replayOut, error) {
	var hash string
	var err error
	rp.timed("lifelong.store_put_module_ms", "Store.PutModule", func() { hash, _, err = st.PutModule(m) })
	if err != nil {
		return nil, err
	}
	var mc *interp.Machine
	var out bytes.Buffer
	rp.timed("interp.machine_ms", "interp.NewMachine", func() {
		res := rp.progs[hash]
		if res == nil {
			res = &resident{mod: m, prog: interp.NewProgram(m)}
			rp.progs[hash] = res
		}
		if mc, err = interp.NewMachine(res.mod, &out); err != nil {
			return
		}
		mc.SetTier(interp.TierAuto)
		if err = mc.AttachProgram(res.prog); err != nil {
			return
		}
		mc.EnableProfile()
	})
	if err != nil {
		return nil, err
	}
	rp.timed("lifelong.store_get_profile_ms", "Store.GetProfile", func() {
		if pf, ok := st.GetProfile(hash); ok {
			mc.SeedProfile(pf.Counts.Funcs)
		}
	})
	o := &replayOut{}
	var runErr error
	rp.timed("interp.exec_ms", "Machine.RunMainContext", func() { _, runErr = mc.RunMainContext(context.Background()) })
	var ee *interp.ExitError
	if errors.As(runErr, &ee) {
		runErr = nil
	}
	if runErr != nil {
		return nil, runErr
	}
	o.steps = mc.Steps
	rp.add("interp.steps", float64(mc.Steps))
	var c *profile.Counts
	rp.timed("profile.counts_ms", "profile.CountsFromBlocks", func() { c = profile.CountsFromBlocks(mc.BlockCounts()) })
	if c.Total > 0 {
		var bumped bool
		rp.timed("lifelong.store_merge_profile_ms", "Store.MergeProfile", func() { _, bumped, err = st.MergeProfile(hash, c) })
		if err != nil {
			return nil, err
		}
		if bumped && rp.record {
			rp.bumps++
		}
	}
	return o, nil
}

// check mirrors handleCheck.
func (rp *replayer) check(st *lifelong.Store, m *core.Module) (*replayOut, error) {
	var hash string
	var err error
	rp.timed("lifelong.store_put_module_ms", "Store.PutModule", func() { hash, _, err = st.PutModule(m) })
	if err != nil {
		return nil, err
	}
	var pt *dsa.Result
	rp.timed("dsa.summaries_ms", "lifelong.SummariesFor", func() { pt, _ = lifelong.SummariesFor(st, hash, m) })
	var rep *checker.Report
	rp.timed("checker.check_ms", "Checker.Check", func() {
		am := analysis.NewManager()
		am.ModuleExt(dsa.Key, m, func(*core.Module) interface{} { return pt })
		ck := checker.New()
		ck.AM = am
		rep, err = ck.Check(m)
	})
	if err != nil {
		return nil, err
	}
	rp.add("checker.diagnostics", float64(len(rep.Diags)))
	return &replayOut{diags: len(rep.Diags), errors: len(rep.Errors())}, nil
}

// translation sums the resident programs' translation counters.
func (rp *replayer) translation() interp.ProgramStats {
	var t interp.ProgramStats
	for _, r := range rp.progs {
		s := r.prog.Stats()
		t.T1Compiles += s.T1Compiles
		t.T1Reused += s.T1Reused
		t.T2Compiles += s.T2Compiles
		t.T2Reused += s.T2Reused
	}
	return t
}

// storeEntries counts the replay stores' blobs.
func (rp *replayer) storeEntries() int {
	n := 0
	for _, st := range rp.stores {
		s := st.Stats()
		n += s.Modules + s.Artifacts + s.Profiles + s.Summaries
	}
	return n
}

// gzipResponse writes data through lifelong.Compress as a handler does
// for a client that accepts gzip.
func gzipResponse(data []byte) {
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", nil)
	r.Header.Set("Accept-Encoding", "gzip")
	w, finish := lifelong.Compress(rec, r)
	w.Write(data)
	finish()
}

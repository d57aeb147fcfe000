package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// linktimePasses are the passes of the linktime pipeline, by
// PassResult.Pass, in pipeline order.
var linktimePasses = []string{
	"ipcp", "inline", "dae", "dge", "pruneeh", "gloadelim", "fieldreorder", "deadtypeelim",
	"sroa", "mem2reg", "instcombine", "sccp", "cse", "licm", "dse", "adce", "simplifycfg",
}

// nodeCalls are the replay metrics timed inside the node handler; with
// lifelong.unattributed_ms they add up to lifelong.handler_ms.
var nodeCalls = []string{
	"lifelong.gunzip_ms", "bytecode.decode_ms", "core.verify_ms", "bytecode.module_hash_ms",
	"lifelong.store_get_profile_ms", "lifelong.store_put_module_ms", "lifelong.store_get_artifact_ms",
	"lifelong.store_get_summaries_ms", "passes.pipeline_ms", "bytecode.encode_ms",
	"lifelong.store_put_artifact_ms", "lifelong.gzip_ms", "interp.machine_ms", "interp.exec_ms",
	"profile.counts_ms", "lifelong.store_merge_profile_ms", "dsa.summaries_ms", "checker.check_ms",
}

// frontCalls are the replay metrics timed inside the front handler; with
// cluster.front_unattributed_ms they add up to cluster.front_self_ms.
var frontCalls = []string{
	"cluster.front_read_ms", "cluster.front_decode_ms", "cluster.front_encode_ms", "bytecode.hash_bytes_ms",
	"cluster.front_gzip_ms",
}

// traced is the --trace 1 run: an untraced HTTP pass (the reference for
// the tracing overhead, the /stats counters and the Go runtime figures),
// a traced HTTP pass of the same sequence, and the in-process replay.
func (b *bench) traced() error {
	eA, err := b.setup(filepath.Join(b.runDir, "untraced"), nil)
	if err != nil {
		return err
	}
	pA := eA.measure(nil)
	vA := eA.check(pA.replies)
	eA.close()

	spans := newSpanLog()
	eB, err := b.setup(filepath.Join(b.runDir, "traced"), spans)
	if err != nil {
		return err
	}
	pB := eB.measure(spans)
	vB := eB.check(pB.replies)
	phases := eB.phases()
	eB.close()

	n := len(eB.calls)
	b.res.Attempted = len(pA.replies) + len(pB.replies)
	b.res.Failed = vA.failures() + vB.failures()
	for _, note := range append(vA.notes, vB.notes...) {
		fmt.Fprintln(os.Stderr, "perfbench:", note)
	}

	rp, err := newReplayer(filepath.Join(b.runDir, "replay"), eB.ring.peers, spans)
	if err != nil {
		return err
	}
	outs, err := b.replay(rp, eB, pB.replies)
	if err != nil {
		return err
	}

	// Counts must agree between the two HTTP passes and the replay: all
	// three carry the same sequence.
	b.sameCounts(eB.calls, vA, vB)
	b.sameReplay(vB, outs, eB)
	if pA.hitRatio != pB.hitRatio || pA.storeEntries != pB.storeEntries {
		b.problem("hit ratio %v/%v or store entries %d/%d differ between the untraced and traced passes",
			pA.hitRatio, pB.hitRatio, pA.storeEntries, pB.storeEntries)
	}
	if e := rp.storeEntries(); e != pB.storeEntries {
		b.problem("replay stores hold %d entries, the cluster's %d", e, pB.storeEntries)
	}
	replayHit := 0.0
	if rp.lookups > 0 {
		replayHit = float64(rp.hits) / float64(rp.lookups)
	}
	if replayHit != pB.hitRatio {
		b.problem("replay hit ratio %v, cluster %v", replayHit, pB.hitRatio)
	}
	if rp.bumps != vB.epochBumps {
		b.problem("replay advanced %d profile epochs, the cluster %d", rp.bumps, vB.epochBumps)
	}

	per := func(name string) float64 { return rp.sum[name] / float64(n) }
	client := spans.durations("client", n)
	front := spans.durations("front", n)
	node := spans.durations("node", n)
	var edge, frontSelf, handler time.Duration
	for i := 0; i < n; i++ {
		edge += client[i] - front[i]
		frontSelf += front[i] - node[i]
		handler += node[i]
	}
	mean := func(d time.Duration) float64 { return ms(d) / float64(n) }

	b.set("cluster.edge_ms", mean(edge), "ms")
	b.set("cluster.front_self_ms", mean(frontSelf), "ms")
	b.set("cluster.retries", pB.retries, "count")
	attributed := 0.0
	for _, name := range frontCalls {
		b.set(name, per(name), "ms")
		attributed += per(name)
	}
	b.residual("cluster.front_unattributed_ms", mean(frontSelf)-attributed)

	b.set("lifelong.handler_ms", mean(handler), "ms")
	attributed = 0
	for _, name := range nodeCalls {
		b.set(name, per(name), "ms")
		attributed += per(name)
	}
	b.residual("lifelong.unattributed_ms", mean(handler)-attributed)
	for _, ph := range []string{"read-parse", "compile", "execute"} {
		b.set("lifelong."+strings.ReplaceAll(ph, "-", "_")+"_ms", phases[ph]/float64(n), "ms")
	}
	b.set("lifelong.hit_ratio", pA.hitRatio, "ratio")
	b.set("lifelong.dedup_ratio", pA.dedupRatio, "ratio")
	b.set("lifelong.store_entries", float64(pA.storeEntries), "count")
	b.set("lifelong.store_index_kb", pA.indexKB, "KB")

	b.set("bytecode.request_kb", per("bytecode.request_kb"), "KB")
	b.set("bytecode.decode_alloc_kb", per("bytecode.decode_alloc_kb"), "KB")
	b.set("bytecode.encode_alloc_kb", per("bytecode.encode_alloc_kb"), "KB")

	for _, pass := range linktimePasses {
		b.set("passes."+pass+"_ms", rp.passMS[pass]/float64(n), "ms")
		delete(rp.passMS, pass)
	}
	for pass := range rp.passMS {
		fmt.Fprintf(os.Stderr, "perfbench: pass %q has no per-pass metric; it counts in passes.pipeline_ms\n", pass)
	}
	b.set("passes.changed", per("passes.changed"), "count")
	b.set("passes.analysis_hit_ratio", ratio(rp.sum["passes.analysis_hits"], rp.sum["passes.analysis_lookups"]), "ratio")

	b.set("checker.diagnostics", per("checker.diagnostics"), "count")

	steps := rp.sum["interp.steps"]
	b.set("interp.steps", per("interp.steps"), "count")
	b.set("interp.ns_per_step", ratio(rp.sum["interp.exec_ms"]*1e6, steps), "ns")
	tr := rp.translation()
	b.set("interp.t1_compiles", float64(tr.T1Compiles-rp.warmTranslation.T1Compiles)/float64(n), "count")
	b.set("interp.t2_compiles", float64(tr.T2Compiles-rp.warmTranslation.T2Compiles)/float64(n), "count")
	reused := float64(tr.T1Reused + tr.T2Reused - rp.warmTranslation.T1Reused - rp.warmTranslation.T2Reused)
	compiled := float64(tr.T1Compiles + tr.T2Compiles - rp.warmTranslation.T1Compiles - rp.warmTranslation.T2Compiles)
	b.set("interp.translation_reuse_ratio", ratio(reused, reused+compiled), "ratio")

	b.set("profile.epoch_bumps", float64(rp.bumps)/float64(n), "count")
	b.set("go.gc_cpu_share", pA.gcShare, "ratio")
	b.set("go.alloc_mb_per_req", pA.allocMB, "MB")
	p50A, _ := latencyQuantiles(pA.replies)
	p50B, _ := latencyQuantiles(pB.replies)
	b.set("obs.trace_overhead_pct", 100*(p50B-p50A)/p50A, "%")

	kbB, stepsB, warningsB := vB.means(eB.calls)
	b.checkCounts("layers", map[string]float64{
		"passes.changed":         rp.sum["passes.changed"],
		"interp.steps":           steps,
		"profile.epoch_bumps":    float64(rp.bumps),
		"lifelong.hit_ratio":     pA.hitRatio,
		"lifelong.store_entries": float64(pA.storeEntries),
		"checker.diagnostics":    rp.sum["checker.diagnostics"],
		"artifact_kb":            kbB,
		"steps_per_run":          stepsB,
		"warnings_per_module":    warningsB,
	})
	b.checkDigest(eB.in)
	return b.writeTraceFiles(spans, n)
}

// residual sets an unattributed time: the span's time the timed calls
// do not cover. The calls run one at a time in the replay and two at a
// time in the traced pass, so they take no longer in the replay; a
// negative residual means the accounting does not hold, and it fails the
// run as a negative self time does.
func (b *bench) residual(name string, v float64) {
	if v < 0 {
		b.problem("%s is negative (%.4f ms): the timed calls take longer than the span that holds them", name, v)
	}
	b.set(name, v, "ms")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phases sums the nodes' flight-recorder phase timings (ms) over the
// timed requests.
func (e *env) phases() map[string]float64 {
	out := map[string]float64{}
	for _, n := range e.ring.nodes {
		for _, rec := range n.Server().Recorder().Snapshot() {
			if !strings.HasPrefix(rec.TraceID, "pb-") {
				continue
			}
			for _, ph := range rec.Phases {
				out[ph.Name] += ph.Seconds * 1e3
			}
		}
	}
	return out
}

// replay warms the scratch stores as the set-up warmed the cluster, then
// replays the timed sequence with recording on. replies are the traced
// pass's answers, which the front relays again in the replay.
func (b *bench) replay(rp *replayer, e *env, replies []reply) ([]*replayOut, error) {
	artifacts := map[int][]byte{}
	if b.wl == "serve-hit" || b.wl == "run-hot" {
		for p, pr := range e.in.progs {
			out, err := rp.one(-1, call{path: compilePath, body: pr.body, prog: p}, nil)
			if err != nil {
				return nil, fmt.Errorf("replay warm-up of %s: %w", pr.name, err)
			}
			if !bytes.Equal(out.artifact, e.warm[p]) {
				b.problem("replay built a different artifact for %s than the cluster", pr.name)
			}
			artifacts[p] = out.artifact
		}
	}
	if b.wl == "run-hot" {
		for p, pr := range e.in.progs {
			if _, err := rp.one(-1, call{path: runPath, body: artifacts[p], prog: p}, nil); err != nil {
				return nil, fmt.Errorf("replay warm-up run of %s: %w", pr.name, err)
			}
		}
	}
	rp.warmTranslation = rp.translation()
	rp.record = true
	outs := make([]*replayOut, len(e.calls))
	for i, cl := range e.calls {
		if b.wl == "run-hot" {
			cl.body = artifacts[cl.prog]
		}
		out, err := rp.one(i, cl, replies[i].body)
		if err != nil {
			return nil, fmt.Errorf("replay of request %d (%s): %w", i, e.in.progs[cl.prog].name, err)
		}
		outs[i] = out
	}
	rp.record = false
	return outs, nil
}

// sameCounts compares what the untraced and the traced HTTP pass of one
// sequence produced.
func (b *bench) sameCounts(calls []call, x, y *verdict) {
	xk, xs, xw := x.means(calls)
	yk, ys, yw := y.means(calls)
	if xk != yk || xs != ys || xw != yw || x.epochBumps != y.epochBumps {
		b.problem("the untraced and traced passes differ: artifact_kb %v/%v, steps_per_run %v/%v, warnings %v/%v, epoch bumps %d/%d",
			xk, yk, xs, ys, xw, yw, x.epochBumps, y.epochBumps)
	}
}

// sameReplay compares the traced pass's answers with the replay's.
func (b *bench) sameReplay(v *verdict, outs []*replayOut, e *env) {
	bad := 0
	for i, o := range outs {
		if v.failed[i] {
			continue
		}
		switch {
		case v.artifacts[i] != nil && !bytes.Equal(v.artifacts[i], o.artifact),
			b.wl == "run-hot" && v.stepsOf[i] != float64(o.steps),
			e.calls[i].path == "/check" && (v.diags[i] != o.diags || o.errors != 0):
			if bad == 0 {
				b.problem("request %d (%s): the replay's answer differs from the cluster's", i, e.in.progs[e.calls[i].prog].name)
			}
			bad++
		}
	}
	if bad > 1 {
		b.problem("%d more requests differ between the replay and the cluster", bad-1)
	}
}

// writeTraceFiles writes the Chrome trace and the self-time table, and
// fails the run when a span's self time is negative.
func (b *bench) writeTraceFiles(spans *spanLog, n int) error {
	dir := filepath.Join(b.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.wl, b.seed))
	if err := spans.writeTrace(base + ".json"); err != nil {
		return err
	}
	rows, negative := spans.selfTimes()
	for _, s := range negative {
		b.problem("negative self time: %s", s)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# %s seed %d: %d requests; self time per request of the traced pass and the replay\n", b.wl, b.seed, n)
	writeSelfTable(&buf, rows, n)
	m := func(name string) float64 { return b.res.Metrics[name].Value }
	fmt.Fprintf(&buf, "\n# accounting, mean ms per request\n")
	fmt.Fprintf(&buf, "client %.4f = edge %.4f + front self %.4f + node handler %.4f\n",
		m("cluster.edge_ms")+m("cluster.front_self_ms")+m("lifelong.handler_ms"),
		m("cluster.edge_ms"), m("cluster.front_self_ms"), m("lifelong.handler_ms"))
	for _, part := range []struct {
		total, rest string
		calls       []string
	}{
		{"cluster.front_self_ms", "cluster.front_unattributed_ms", frontCalls},
		{"lifelong.handler_ms", "lifelong.unattributed_ms", nodeCalls},
	} {
		fmt.Fprintf(&buf, "%s %.4f =", part.total, m(part.total))
		for _, c := range part.calls {
			if v := m(c); v != 0 {
				fmt.Fprintf(&buf, " %s %.4f +", c, v)
			}
		}
		fmt.Fprintf(&buf, " %s %.4f\n", part.rest, m(part.rest))
	}
	fmt.Fprintf(&buf, "\n# per-layer metrics\n")
	for _, name := range sortedKeys(b.res.Metrics) {
		m := b.res.Metrics[name]
		fmt.Fprintf(&buf, "%-40s %14.6f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s.json and %s-selftime.txt\n", base, base)
	return os.WriteFile(base+"-selftime.txt", buf.Bytes(), 0o644)
}

func sortedKeys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

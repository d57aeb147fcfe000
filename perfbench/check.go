package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/interp"
)

// outcome is one program execution: what a caller of the program sees.
type outcome struct {
	exit   int64
	output string
	trap   string
	steps  int64
}

func (o outcome) sameBehaviour(ref outcome) bool {
	return o.trap == "" && ref.trap == "" && o.exit == ref.exit && o.output == ref.output
}

// execute decodes body and runs main at the given tier.
func execute(body []byte, tier interp.TierPolicy) outcome {
	m, err := bytecode.Decode(body)
	if err != nil {
		return outcome{trap: "decode: " + err.Error()}
	}
	var out bytes.Buffer
	mc, err := interp.NewMachine(m, &out)
	if err != nil {
		return outcome{trap: "machine: " + err.Error()}
	}
	mc.SetTier(tier)
	code, err := mc.RunMainContext(context.Background())
	o := outcome{exit: code, output: out.String(), steps: mc.Steps}
	var ee *interp.ExitError
	switch {
	case errors.As(err, &ee):
		o.exit = ee.Code
	case err != nil:
		o.trap = err.Error()
	}
	return o
}

// executeAll runs every body on GOMAXPROCS workers.
func executeAll(bodies [][]byte, tier interp.TierPolicy) []outcome {
	out := make([]outcome, len(bodies))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i] = execute(bodies[i], tier)
			}
		}()
	}
	for i := range bodies {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// references runs the unoptimized modules of progs at tier 0, the
// reference semantics: expected outputs never come from the optimizer or
// the execution tiers under test.
func (e *env) references(progs []int) map[int]outcome {
	bodies := make([][]byte, len(progs))
	for i, p := range progs {
		bodies[i] = e.in.progs[p].body
	}
	outs := executeAll(bodies, interp.TierInterp)
	ref := map[int]outcome{}
	for i, p := range progs {
		ref[p] = outs[i]
	}
	return ref
}

// runResponse and checkResponse are the fields of /run and /check
// answers the oracle reads.
type runResponse struct {
	ExitCode      int64  `json:"exit_code"`
	Output        string `json:"output"`
	Steps         int64  `json:"steps"`
	Trap          string `json:"trap"`
	EpochAdvanced bool   `json:"epoch_advanced"`
}

type checkResponse struct {
	ModuleHash  string            `json:"module_hash"`
	Diagnostics []json.RawMessage `json:"diagnostics"`
	Errors      int               `json:"errors"`
}

// verdict is the oracle's judgement of one timed pass.
type verdict struct {
	failed []bool   // per request
	notes  []string // why requests failed
	// Per request, what the service produced: its size in KB and the
	// interpreter steps behind it (see WORKLOADS.md), and for /compile
	// the artifact and for /check the diagnostics, which the replay must
	// reproduce.
	kb, stepsOf []float64
	artifacts   [][]byte
	diags       []int
	epochBumps  int
}

func (v *verdict) fail(i int, format string, args ...interface{}) {
	if !v.failed[i] && len(v.notes) < 20 {
		v.notes = append(v.notes, fmt.Sprintf("request %d: ", i)+fmt.Sprintf(format, args...))
	}
	v.failed[i] = true
}

func (v *verdict) failures() int {
	n := 0
	for _, f := range v.failed {
		if f {
			n++
		}
	}
	return n
}

// means returns artifact_kb, steps_per_run and warnings_per_module: the
// first two over every request that passed, the last over the /check
// requests among them.
func (v *verdict) means(calls []call) (kb, steps, warnings float64) {
	var ok, checks float64
	for i := range v.failed {
		if v.failed[i] {
			continue
		}
		ok++
		kb += v.kb[i]
		steps += v.stepsOf[i]
		if calls[i].path == "/check" {
			checks++
			warnings += float64(v.diags[i])
		}
	}
	return ratio(kb, ok), ratio(steps, ok), ratio(warnings, checks)
}

// check judges every reply of a timed pass against the reference
// semantics and the workload's expectations. It runs after the clock
// stops.
func (e *env) check(rs []reply) *verdict {
	n := len(rs)
	v := &verdict{failed: make([]bool, n), kb: make([]float64, n), stepsOf: make([]float64, n),
		artifacts: make([][]byte, n), diags: make([]int, n)}
	byPath := map[string][]int{}
	for i := range rs {
		if rs[i].err != nil {
			v.fail(i, "transport: %v", rs[i].err)
		} else if rs[i].status != 200 {
			v.fail(i, "status %d: %.200s", rs[i].status, rs[i].body)
		}
		byPath[e.calls[i].path] = append(byPath[e.calls[i].path], i)
	}
	e.checkCompile(rs, byPath[compilePath], v)
	e.checkRun(rs, byPath[runPath], v)
	e.checkCheck(rs, byPath["/check"], v)
	return v
}

// checkCompile judges /compile answers: the expected X-Cache, the same
// bytes as the warm-up's answer, and an artifact that runs to the
// reference.
func (e *env) checkCompile(rs []reply, idx []int, v *verdict) {
	want := "miss"
	if e.wl == "serve-hit" {
		want = "hit"
	}
	// Distinct artifacts, each run once against its reference.
	var progs []int
	var bodies [][]byte
	seen := map[int]bool{}
	for _, i := range idx {
		r, p := rs[i], e.calls[i].prog
		if v.failed[i] {
			continue
		}
		if r.cache != want {
			v.fail(i, "X-Cache %q, want %q", r.cache, want)
			continue
		}
		if first, ok := e.warm[p]; ok && !bytes.Equal(first, r.body) {
			v.fail(i, "artifact differs from the first response for %s", e.in.progs[p].name)
			continue
		}
		if !seen[p] {
			seen[p] = true
			progs = append(progs, p)
			bodies = append(bodies, r.body)
		}
		v.artifacts[i] = r.body
	}
	ref := e.references(progs)
	got := executeAll(bodies, interp.TierAuto)
	stepsOf := map[int]int64{}
	for k, p := range progs {
		if !got[k].sameBehaviour(ref[p]) {
			for _, i := range idx {
				if e.calls[i].prog == p {
					v.fail(i, "%s: artifact ran to exit %d %q (trap %q), reference exit %d %q (trap %q)",
						e.in.progs[p].name, got[k].exit, got[k].output, got[k].trap, ref[p].exit, ref[p].output, ref[p].trap)
				}
			}
		}
		stepsOf[p] = got[k].steps
	}
	for _, i := range idx {
		v.kb[i] = float64(len(rs[i].body)) / 1024
		v.stepsOf[i] = float64(stepsOf[e.calls[i].prog])
	}
}

// checkRun judges /run answers against the reference.
func (e *env) checkRun(rs []reply, idx []int, v *verdict) {
	if len(idx) == 0 {
		return
	}
	var progs []int
	for p := range e.in.progs {
		progs = append(progs, p)
	}
	ref := e.references(progs)
	stepsOf := map[int]int64{}
	for _, i := range idx {
		if v.failed[i] {
			continue
		}
		p := e.calls[i].prog
		var resp runResponse
		if err := json.Unmarshal(rs[i].body, &resp); err != nil {
			v.fail(i, "decoding /run answer: %v", err)
			continue
		}
		got := outcome{exit: resp.ExitCode, output: resp.Output, trap: resp.Trap, steps: resp.Steps}
		if !got.sameBehaviour(ref[p]) {
			v.fail(i, "%s: /run gave exit %d %q (trap %q), reference exit %d %q (trap %q)",
				e.in.progs[p].name, got.exit, got.output, got.trap, ref[p].exit, ref[p].output, ref[p].trap)
			continue
		}
		// Every tier executes the same instructions, so every run of one
		// artifact takes the same number of steps.
		if s, seen := stepsOf[p]; seen && s != resp.Steps {
			v.fail(i, "%s: %d steps, an earlier run took %d", e.in.progs[p].name, resp.Steps, s)
			continue
		}
		stepsOf[p] = resp.Steps
		if resp.EpochAdvanced {
			v.epochBumps++
		}
		v.kb[i] = float64(len(e.calls[i].body)) / 1024
		v.stepsOf[i] = float64(resp.Steps)
	}
}

// checkCheck judges /check answers. The generated programs are
// memory-safe: each must run to completion at tier 0, so every checker
// diagnostic is a false positive and no error may be reported.
func (e *env) checkCheck(rs []reply, idx []int, v *verdict) {
	var progs []int
	for _, i := range idx {
		progs = append(progs, e.calls[i].prog)
	}
	ref := e.references(progs)
	for _, i := range idx {
		if v.failed[i] {
			continue
		}
		p := e.calls[i].prog
		if ref[p].trap != "" {
			v.fail(i, "%s traps at tier 0: %s", e.in.progs[p].name, ref[p].trap)
			continue
		}
		var resp checkResponse
		if err := json.Unmarshal(rs[i].body, &resp); err != nil {
			v.fail(i, "decoding /check answer: %v", err)
			continue
		}
		if resp.Errors != 0 {
			v.fail(i, "%s: checker reported %d errors on a memory-safe program", e.in.progs[p].name, resp.Errors)
			continue
		}
		blob, found := e.ring.summaries(resp.ModuleHash)
		if !found {
			v.fail(i, "%s: no persisted summaries after /check", e.in.progs[p].name)
			continue
		}
		v.diags[i] = len(resp.Diagnostics)
		v.kb[i] = float64(len(blob)) / 1024
		v.stepsOf[i] = float64(ref[p].steps)
	}
}

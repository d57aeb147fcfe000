package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/workload"
)

// Inputs are made from the seed alone: which MiniC programs exist, their
// bytes, and the order requests name them in. Nothing here reads a clock,
// so a run's traffic — and every count derived from it — repeats exactly
// for a given (workload, seed, seconds).

// program is one generated module a workload sends.
type program struct {
	name    string // "<profile>#<variant>"
	profile workload.Profile
	src     []string // MiniC units as generated
	body    []byte   // canonical bytecode of the linked, unoptimized module
	// check sends the module to /check instead of /compile.
	check bool
}

// inputs is one workload's request set.
type inputs struct {
	progs []*program
	// seq names the program of each timed request, in send order.
	seq []int
	// digest is the SHA-256 of the workload's MiniC source set and its
	// request sequence.
	digest string
}

// requestsPerSecond sizes each workload's timed phase: a run sends
// rate × --seconds requests, so the count is fixed by the arguments and
// the timed phase lasts about --seconds on a 2-vCPU machine.
var requestsPerSecond = map[string]int{
	"serve-hit":    130,
	"compile-miss": 48,
	"run-hot":      48,
}

const (
	// hotVariants is the number of seeded variants of each suite profile
	// in serve-hit's hot set (15 profiles × 2 = 30 modules).
	hotVariants = 2
	// runLoopScale multiplies every run-hot program's loop trip counts, so
	// execution dominates the node's time per /run.
	runLoopScale = 200
)

// mix is splitmix64: a seeded, platform-independent stream of variant
// seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func variantSeed(seed int64, tag string, i int) int64 {
	h := uint64(seed)
	for _, c := range tag {
		h = mix(h ^ uint64(c))
	}
	return int64(mix(h^uint64(i)) >> 2)
}

// makeInputs generates the workload's programs and request sequence.
// Sources are generated here; compile builds their modules.
func makeInputs(wl string, seed int64, seconds int) (*inputs, error) {
	suite := workload.Suite()
	n := requestsPerSecond[wl] * seconds
	if n < 100 {
		n = 100 // at least 10 samples beyond p90
	}
	rnd := rand.New(rand.NewSource(seed))
	in := &inputs{}
	var err error
	add := func(p workload.Profile, variant int) {
		p.Seed = variantSeed(seed, wl+"/"+p.Name, variant)
		in.progs = append(in.progs, &program{
			name:    fmt.Sprintf("%s#%d", p.Name, variant),
			profile: p,
			src:     workload.Generate(p).Units,
		})
	}
	switch wl {
	case "serve-hit":
		// Hot set: every suite profile in hotVariants seeded variants. The
		// popularity rank follows the suite order (variant 0 of every
		// profile first), Zipf with s = 1; each module's request count is
		// its exact share, so only the order and the bytes depend on the
		// seed and the size mix is the same for every seed. No module comes
		// twice within repeatGap requests.
		for v := 0; v < hotVariants; v++ {
			for _, p := range suite {
				add(p, v)
			}
		}
		weights := make([]float64, len(in.progs))
		for r := range weights {
			weights[r] = 1 / float64(r+1)
		}
		if in.seq, err = spacedShares(weights, n, rnd); err != nil {
			return nil, err
		}
	case "run-hot":
		// One artifact per suite profile (15, inside the daemon's
		// 32-entry resident-program cache), equal shares, none twice
		// within repeatGap requests.
		for _, p := range suite {
			p.LoopIters *= runLoopScale
			add(p, 0)
		}
		weights := make([]float64, len(in.progs))
		for r := range weights {
			weights[r] = 1
		}
		if in.seq, err = spacedShares(weights, n, rnd); err != nil {
			return nil, err
		}
	case "compile-miss":
		// A new module on every request: rounds of the 15 profiles, each
		// round in seeded order, so every seed has the same size mix. The
		// first module of each round goes to /check rather than /compile:
		// the checker and its persisted summaries are priced here too, at
		// a share small enough that /compile sets p50 and p90.
		for len(in.progs) < n {
			for j, k := range rnd.Perm(len(suite)) {
				if len(in.progs) == n {
					break
				}
				add(suite[k], len(in.progs))
				in.progs[len(in.progs)-1].check = j == 0
			}
		}
		for i := range in.progs {
			in.seq = append(in.seq, i)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v\x00", in.seq)
	for _, p := range in.progs {
		fmt.Fprintf(h, "%s\x00%v\x00%d\x00", p.name, p.check, len(p.src))
		for _, u := range p.src {
			fmt.Fprintf(h, "%d\x00%s", len(u), u)
		}
	}
	in.digest = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// repeatGap is the least distance between two requests for one module.
// With two clients, requests i and i+1 are usually in flight together;
// were they the same module, whether the second joined the first's
// single-flight (and skipped its store writes) would depend on timing.
const repeatGap = 3

// spacedShares returns n indices, index r appearing in proportion to
// weights[r] (largest-remainder rounding), in seeded order, with no index
// repeated within repeatGap positions. Each position draws among the
// indices allowed there, weighted by how many requests each has left; an
// index whose remaining requests would no longer fit at the gap is drawn
// first. The weights must leave every index under 1/repeatGap of the
// requests.
func spacedShares(weights []float64, n int, rnd *rand.Rand) ([]int, error) {
	left := exactCounts(weights, n)
	seq := make([]int, 0, n)
	allowed := func(r int) bool {
		for k := len(seq) - 1; k >= 0 && k > len(seq)-repeatGap; k-- {
			if seq[k] == r {
				return false
			}
		}
		return left[r] > 0
	}
	for len(seq) < n {
		slots := n - len(seq)
		pick, total := -1, 0
		for r := range left {
			if !allowed(r) {
				continue
			}
			// left[r] requests need (left[r]-1)*repeatGap+1 slots; keep
			// one gap of slack for the positions r is not allowed in.
			if left[r]*repeatGap+1 >= slots && (pick < 0 || left[r] > left[pick]) {
				pick = r
			}
			total += left[r]
		}
		if pick < 0 && total > 0 {
			x := rnd.Intn(total)
			for r := range left {
				if !allowed(r) {
					continue
				}
				if x -= left[r]; x < 0 {
					pick = r
					break
				}
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("cannot space %d requests over %d modules %d apart", n, len(weights), repeatGap)
		}
		seq = append(seq, pick)
		left[pick]--
	}
	return seq, nil
}

// exactCounts splits n requests in proportion to weights, by largest
// remainder.
func exactCounts(weights []float64, n int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	rem := make([]float64, len(weights))
	left := n
	for r, w := range weights {
		exact := float64(n) * w / total
		counts[r] = int(exact)
		rem[r] = exact - float64(counts[r])
		left -= counts[r]
	}
	for ; left > 0; left-- {
		best := 0
		for r := range rem {
			if rem[r] > rem[best] {
				best = r
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// compile turns every program's MiniC units into one linked module with
// the repository's front-end and linker (no optimization: passes run in
// the service) and encodes it as canonical bytecode. Modules are built
// on GOMAXPROCS workers; the result does not depend on their order.
func (in *inputs) compile() error {
	work := make(chan *program)
	errs := make(chan error, len(in.progs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				if err := p.build(); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, p := range in.progs {
		work <- p
	}
	close(work)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	seen := map[string]string{}
	for _, p := range in.progs {
		h := bytecode.HashBytes(p.body)
		if other, dup := seen[h]; dup {
			return fmt.Errorf("programs %s and %s encode identically", other, p.name)
		}
		seen[h] = p.name
	}
	return nil
}

func (p *program) build() error {
	mods := make([]*core.Module, 0, len(p.src))
	for i, src := range p.src {
		m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.profile.Name, i), src)
		if err != nil {
			return fmt.Errorf("%s unit %d: %w", p.name, i, err)
		}
		mods = append(mods, m)
	}
	linked, err := linker.Link(p.profile.Name, mods...)
	if err != nil {
		return fmt.Errorf("%s: link: %w", p.name, err)
	}
	passes.NewInternalize().RunOnModule(linked)
	if err := core.Verify(linked); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	body, err := bytecode.Encode(linked)
	if err != nil {
		return fmt.Errorf("%s: encode: %w", p.name, err)
	}
	p.body = body
	return nil
}

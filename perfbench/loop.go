package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
)

// sessionOp is one seeded operation of a closed-loop pass: the timed
// session call, the untimed oracle, and (for the traced run) the same
// inputs through the driver or engine function the session wraps.
type sessionOp struct {
	method string
	call   func(s *cc.Clique) (out any, st cc.Stats, err error)
	check  func(out any) error
	// prepare pads the inputs to the session's clique size n and returns
	// the timed call of the layer below the session on a network the
	// benchmark built; layer names it ("driver.X" or "ccmm.X").
	layer   string
	prepare func(n int) func(net *clique.Network, sc *ccmm.Scratch) error
}

// passCost is the model cost of one pass: deterministic, so every pass
// and every run of the same seed must reproduce it exactly.
type passCost struct {
	rounds, words int64
	phases        map[string][2]int64 // folded engine phase → rounds, words
	routing       map[string]int64    // Stats.Routing decision → count
}

func newPassCost() passCost {
	return passCost{phases: map[string][2]int64{}, routing: map[string]int64{}}
}

func (c *passCost) add(st cc.Stats) {
	c.rounds += st.Rounds
	c.words += st.Words
	for _, p := range st.Phases {
		stem := foldPhase(p.Name)
		if !enginePhase(stem) {
			continue
		}
		v := c.phases[stem]
		v[0] += p.Rounds
		v[1] += p.Words
		c.phases[stem] = v
	}
	if st.Routing != "" {
		c.routing[st.Routing]++
	}
}

func (c passCost) equal(o passCost) bool {
	return c.rounds == o.rounds && c.words == o.words &&
		maps.Equal(c.phases, o.phases) && maps.Equal(c.routing, o.routing)
}

// layerValues are the per-layer metrics the pass cost determines. Phases
// outside enginePhases compute locally and charge nothing; one that
// charges is reported, since the registry then needs it.
func (c passCost) layerValues(vals map[string]float64) {
	for stem, v := range c.phases {
		if !slices.Contains(enginePhases, strings.Replace(stem, ".", "/", 1)) {
			if v != [2]int64{} {
				fmt.Fprintf(stderr, "perfbench: phase %s charges %d rounds/%d words but has no metric\n", stem, v[0], v[1])
			}
			continue
		}
		vals["ccmm."+stem+".rounds"] = float64(v[0])
		vals["ccmm."+stem+".words"] = float64(v[1])
	}
	for _, r := range []string{"sparse", "dense"} {
		vals["ccmm.routing."+r] = float64(c.routing[r])
	}
	vals["ccmm.routing.fallback"] = float64(c.routing["dense-fallback"])
}

// run is the state of one benchmark run: counts, failures, the expected
// pass cost, and the tracer when tracing.
type run struct {
	mu        sync.Mutex // guards failures: serve answers are checked concurrently
	tr        *tracer
	attempted int64
	failures  []string
	cost      *passCost  // the first pass's cost; every later pass must match
	opStats   []cc.Stats // the first pass's per-op stats, by op position
	passID    int64
	latency   latencySummary // the end-to-end latency sample, for printing
	setup     *setupRep      // a set-up process's sample
}

func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 20 {
		fmt.Fprintln(stderr, "perfbench: FAIL:", msg)
	}
	r.failures = append(r.failures, msg)
}

// expectCost checks a pass's model cost against the run's first pass.
func (r *run) expectCost(c passCost) {
	if r.cost == nil {
		r.cost = &c
		return
	}
	if !r.cost.equal(c) {
		r.fail("model cost differs between passes: %d rounds/%d words, first pass %d/%d",
			c.rounds, c.words, r.cost.rounds, r.cost.words)
	}
}

// passTimes are the per-operation latencies of one or more passes: all in
// order, and by method.
type passTimes struct {
	all      []time.Duration
	byMethod map[string][]time.Duration
}

func (p *passTimes) add(method string, d time.Duration) {
	if p.byMethod == nil {
		p.byMethod = map[string][]time.Duration{}
	}
	p.all = append(p.all, d)
	p.byMethod[method] = append(p.byMethod[method], d)
}

// passSpend is what one pass's session calls took: their summed latency
// and the bytes they allocated, the benchmark's own checks left out.
type passSpend struct {
	calls      time.Duration
	allocBytes uint64
}

// runPass makes one pass of ops on s: each call timed (and traced), each
// output checked afterwards, the pass's model cost checked for
// determinism.
func (r *run) runPass(s *cc.Clique, ops []sessionOp, times *passTimes) passSpend {
	r.passID++
	passSpan := r.tr.reserve()
	passStart := time.Now()
	cost := newPassCost()
	first := r.opStats == nil
	var spend passSpend
	for _, op := range ops {
		r.attempted++
		a0 := heapAllocs()
		t0 := time.Now()
		out, st, err := op.call(s)
		t1 := time.Now()
		spend.allocBytes += heapAllocs() - a0
		spend.calls += t1.Sub(t0)
		r.tr.record("algclique."+op.method, passSpan, r.passID, t0, t1)
		if times != nil {
			times.add(op.method, t1.Sub(t0))
		}
		if err != nil {
			r.fail("%s: %v", op.method, err)
			continue
		}
		if err := op.check(out); err != nil {
			r.fail("%s: wrong answer: %v", op.method, err)
		}
		cost.add(st)
		if first {
			r.opStats = append(r.opStats, st)
		}
	}
	r.tr.fill(passSpan, "pass", 0, r.passID, passStart, time.Now())
	r.expectCost(cost)
	return spend
}

// setupReps is how many fresh processes set-up time is measured in.
const setupReps = 5

// setupRep is one set-up sample, measured in a fresh process (this
// executable run with --setup-rep) so that the process-wide caches — plan
// and scheme resolution — start empty, as a user's first call finds them.
// Closed loops report the session build and each operation's cold and
// warm latency; serve-mixed reports its whole cold start as Build.
type setupRep struct {
	Build     time.Duration   `json:"build_ns"`
	Cold      []time.Duration `json:"cold_ns"`
	Warm      []time.Duration `json:"warm_ns"`
	Cost      recordedCost    `json:"cost"`
	Attempted int64           `json:"attempted"`
	Failures  []string        `json:"failures"`
}

// measureSetup is the closed loops' set-up sample: a session built in
// this fresh process makes each operation of the pass twice in a row,
// cold and then warm, so that the two calls meet the same host
// conditions; the collector is paused so that collections, which fall at
// different points in every call, do not land in one and not the other.
// Both calls are checked, and each pass of them must charge the run's
// model cost.
func (r *run) measureSetup(build func() (*cc.Clique, error), ops []sessionOp) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	s, err := build()
	if err != nil {
		return err
	}
	defer s.Close()
	rep := &setupRep{Build: time.Since(t0)}
	cold, warm := newPassCost(), newPassCost()
	for _, op := range ops {
		for _, c := range []struct {
			times *[]time.Duration
			cost  *passCost
		}{{&rep.Cold, &cold}, {&rep.Warm, &warm}} {
			r.attempted++
			t0 := time.Now()
			out, st, err := op.call(s)
			*c.times = append(*c.times, time.Since(t0))
			if err != nil {
				r.fail("%s: %v", op.method, err)
				continue
			}
			if err := op.check(out); err != nil {
				r.fail("%s: wrong answer: %v", op.method, err)
			}
			c.cost.add(st)
		}
	}
	r.expectCost(cold)
	r.expectCost(warm)
	r.setup = rep
	return nil
}

// setupSeconds runs setupReps fresh processes of the workload and returns
// its set-up time: the median build (for serve-mixed, the median cold
// start) plus, summed over the pass's operations, the median over
// processes of each operation's cold latency beyond its warm latency.
// That is the first-use cost — network build, plan and scheme resolution,
// pool growth, sparse-link mailboxes — without the full latency of the
// operations that have none. Each process's answers and model cost are
// checked like this run's own.
func (r *run) setupSeconds(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var builds []time.Duration
	var excess [][]float64 // by operation, one per process, in ms
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10),
			"--out", cfg.out, "--setup-rep")
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up process %d: %w", i, err)
		}
		var rep setupRep
		if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
			return 0, fmt.Errorf("set-up process %d: %w", i, err)
		}
		r.attempted += rep.Attempted
		for _, f := range rep.Failures {
			r.fail("set-up process %d: %s", i, f)
		}
		if !rep.Cost.cost().equal(*r.cost) {
			r.fail("set-up process %d charged %d rounds/%d words, this run %d/%d",
				i, rep.Cost.Rounds, rep.Cost.Words, r.cost.rounds, r.cost.words)
		}
		builds = append(builds, rep.Build)
		for len(excess) < len(rep.Cold) {
			excess = append(excess, nil)
		}
		for k := range rep.Cold {
			excess[k] = append(excess[k], float64(rep.Cold[k]-rep.Warm[k])/1e6)
		}
	}
	ms := durMedian(builds)
	for _, e := range excess {
		ms += medianOf(e)
	}
	return ms / 1e3, nil
}

// closedRun is the closed-loop workloads' run on one session after a
// first, cold pass. Untraced, it measures the end-to-end loop, reads the
// peak footprint, and then measures set-up in fresh processes; traced, it
// measures the layers and returns the untraced loop. As a set-up process
// it only measures its set-up sample.
func (r *run) closedRun(cfg config, build func() (*cc.Clique, error), ops []sessionOp, driverReps int, vals map[string]float64) (loopResult, error) {
	if cfg.setupRep {
		return loopResult{}, r.measureSetup(build, ops)
	}
	s, err := build()
	if err != nil {
		return loopResult{}, err
	}
	r.runPass(s, ops, nil)
	if cfg.trace {
		defer s.Close()
		return r.tracedLayers(s, ops, cfg.seconds, driverReps, vals)
	}
	loop := r.closedLoop(s, ops, cfg.seconds)
	r.endToEndValues(vals, loop)
	vals["peak_rss_mb"] = peakRSSMB()
	s.Close()
	vals["setup_s"], err = r.setupSeconds(cfg)
	return loop, err
}

// loopResult is what a timed closed loop measured.
type loopResult struct {
	ops        int
	times      passTimes
	passDur    []time.Duration // each pass's summed call latency
	allocBytes uint64          // allocated by the session calls
	host       hostDelta       // the whole loop, checks included
	dense      int64           // ccmm.DenseAllocs delta
	passes     int
}

// opsPerSec is the loop's throughput, taken from its median pass so that a
// stretch of host contention in one part of the run moves it less.
func (l loopResult) opsPerSec() float64 {
	return float64(l.ops/l.passes) / (durMedian(l.passDur) / 1e3)
}

// closedLoop makes whole passes on s until at least d has elapsed: one
// caller, each call issued when the previous one returned.
func (r *run) closedLoop(s *cc.Clique, ops []sessionOp, d time.Duration) loopResult {
	var res loopResult
	h0 := readHost()
	dense0 := ccmm.DenseAllocs()
	start := time.Now()
	for res.passes == 0 || time.Since(start) < d {
		spend := r.runPass(s, ops, &res.times)
		res.passDur = append(res.passDur, spend.calls)
		res.allocBytes += spend.allocBytes
		res.passes++
	}
	res.host = h0.to(readHost())
	res.dense = ccmm.DenseAllocs() - dense0
	res.ops = res.passes * len(ops)
	return res
}

// passMedian is the closed loops' median latency: the median over passes
// of each pass's median operation. A pass's operations fall into a few
// well-separated kinds, so the pooled median sits in the gap between two
// kinds and swings between their extreme samples; the median of pass
// medians does not.
func passMedian(all []time.Duration, perPass int) float64 {
	var meds []float64
	for i := 0; i+perPass <= len(all); i += perPass {
		meds = append(meds, durMedian(all[i:i+perPass]))
	}
	return medianOf(meds)
}

// endToEndValues fills the closed-loop workloads' end-to-end metrics.
func (r *run) endToEndValues(vals map[string]float64, l loopResult) {
	sum := summarize(l.times.all)
	r.latency = sum
	cost := *r.cost
	vals["ops_per_s"] = l.opsPerSec()
	vals["latency_p50_ms"] = passMedian(l.times.all, l.ops/l.passes)
	vals["latency_tail_ms"] = sum.tail
	vals["rounds"] = float64(cost.rounds)
	vals["words"] = float64(cost.words)
	vals["alloc_mb_per_op"] = float64(l.allocBytes) / 1e6 / float64(l.ops)
}

// tracedLayers runs the trace-only measurements shared by the closed-loop
// workloads: a traced and an untraced loop of equal length, per-method
// spans, and the driver/engine functions on a network of the session's
// size, from which the session wrapper's overhead follows.
// It returns the untraced loop.
func (r *run) tracedLayers(s *cc.Clique, ops []sessionOp, d time.Duration, driverReps int, vals map[string]float64) (loopResult, error) {
	tr := r.tr
	r.tr = nil
	plain := r.closedLoop(s, ops, d/2)
	r.tr = tr
	traced := r.closedLoop(s, ops, d/2)
	vals["trace.overhead"] = traced.opsPerSec() / plain.opsPerSec()
	vals["runtime.gc_cpu_fraction"] = traced.host.gcFraction
	vals["runtime.gc_pause_ms"] = traced.host.gcPauseMsec / float64(traced.ops)
	vals["ccmm.dense_allocs"] = float64(traced.dense) / float64(traced.passes)
	r.cost.layerValues(vals)

	for m, ds := range traced.times.byMethod {
		vals["algclique."+m+".p50_ms"] = durMedian(ds)
	}
	return plain, r.driverLayers(s, ops, driverReps, vals)
}

// driverLayers times each op's driver or engine function on a network the
// benchmark built, of the clique size the session ran the op at, each
// right after the same call on the session s; the session wrapper's
// overhead is the median of the paired differences. The driver must
// charge exactly the session's rounds and words.
func (r *run) driverLayers(s *cc.Clique, ops []sessionOp, reps int, vals map[string]float64) error {
	// The session pads to its clique size; the drivers run on a network
	// of the same size, which is what the ledger's N reports.
	driverTimes := map[string][]time.Duration{}
	overheads := map[string][]float64{}
	layerOf := map[string]string{}
	nets := map[int]*clique.Network{}
	scs := map[int]*ccmm.Scratch{}
	defer func() {
		for _, net := range nets {
			net.Close()
		}
	}()
	// Rep 0 warms the networks and scratch pools, as the session's are.
	for rep := 0; rep <= reps; rep++ {
		for i, op := range ops {
			if op.prepare == nil || i >= len(r.opStats) {
				continue
			}
			st := r.opStats[i]
			net := nets[st.N]
			if net == nil {
				net = clique.New(st.N)
				nets[st.N] = net
				scs[st.N] = ccmm.NewScratch()
			}
			net.Reset()
			net.SetSparseThreshold(ccmm.DefaultSparseThreshold)
			call := op.prepare(st.N)

			r.attempted++
			t0 := time.Now()
			out, _, err := op.call(s)
			t1 := time.Now()
			r.tr.record("algclique."+op.method, 0, 0, t0, t1)
			if err != nil {
				return fmt.Errorf("%s: %w", op.method, err)
			}
			if err := op.check(out); err != nil {
				r.fail("%s: wrong answer: %v", op.method, err)
			}
			t2 := time.Now()
			err = call(net, scs[st.N])
			t3 := time.Now()
			r.tr.record(op.layer, 0, 0, t2, t3)
			if err != nil {
				return fmt.Errorf("%s: %w", op.layer, err)
			}
			if got := net.Stats(); got.Rounds != st.Rounds || got.Words != st.Words {
				r.fail("%s charged %d rounds/%d words, the session's %s %d/%d",
					op.layer, got.Rounds, got.Words, op.method, st.Rounds, st.Words)
			}
			if rep > 0 {
				driverTimes[op.method] = append(driverTimes[op.method], t3.Sub(t2))
				overheads[op.method] = append(overheads[op.method], float64(t1.Sub(t0)-t3.Sub(t2))/1e6)
				layerOf[op.method] = op.layer
			}
		}
	}
	for _, m := range slices.Sorted(maps.Keys(driverTimes)) {
		vals[layerOf[m]+".ms"] = durMedian(driverTimes[m])
		vals["algclique.overhead_ms."+m] = medianOf(overheads[m])
	}
	return nil
}

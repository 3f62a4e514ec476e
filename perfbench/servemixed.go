package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/distance"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/serve"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

// serve-mixed's shape: perfect-square and non-square sizes ≤ 64, four
// tenants, requests in bursts of one per input variant of one (size, op),
// a base rate for the end-to-end figures and, in the traced run, a ladder
// of fixed offered rates spanning the knee for serve.max_rate_rps.
var (
	serveSizes   = []int{16, 24, 36, 48, 64}
	serveTenants = []string{"tenant-a", "tenant-b", "tenant-c", "tenant-d"}
	// serveBaseRate is about a third of the knee serve.max_rate_rps
	// measures (537-640 req/s on a 2-vCPU VM): the tail is steady between
	// runs there, and a third less capacity puts the base rate on the
	// rising part of the latency curve.
	serveBaseRate = 200.0
	serveLadder   = []float64{260, 340, 440, 570, 740, 960, 1250}
)

const (
	// serveBurst is how many requests one arrival brings: one tenant's
	// same-shaped requests on serveBurst input variants, as a client
	// fanning out a batch of queries. Its requests share a queue and fall
	// due together, so the server's batching window coalesces them.
	serveBurst = 4
	// serveTailLimit is the latency limit on the tail percentile that a
	// rate must meet to count as sustained.
	serveTailLimit = 100 * time.Millisecond
	// serveLateBound invalidates a base-rate run whose generator issued a
	// request later than this after it was due.
	serveLateBound = serveTailLimit
	// serveStep is how long each ladder rate is offered; the ladder is
	// climbed serveClimbs times and serve.max_rate_rps is the median
	// crossing.
	serveStep   = time.Second
	serveClimbs = 3
	// serveWindows splits the base-rate step into windows; the latency
	// figures are medians over windows, so one stretch of host contention
	// moves them less.
	serveWindows = 10
)

// serveItem is one (size, variant, op) request of the pass with its
// direct-session reference answer and model cost.
type serveItem struct {
	req       serve.Request
	wantMat   *matrix.Dense[int64]
	wantCount int64
	want      cc.Stats
}

// check compares a served answer, and the rounds and words the server's
// session charged for it, with the direct session call's.
func (it *serveItem) check(res serve.Result) error {
	if res.Err != nil {
		return res.Err
	}
	if res.Stats.Rounds != it.want.Rounds || res.Stats.Words != it.want.Words {
		return fmt.Errorf("served at %d rounds/%d words, the direct call %d/%d",
			res.Stats.Rounds, res.Stats.Words, it.want.Rounds, it.want.Words)
	}
	if it.req.Op == serve.OpTriangles {
		if res.Count != it.wantCount {
			return fmt.Errorf("count %d, want %d", res.Count, it.wantCount)
		}
		return nil
	}
	return sameMat(res.Matrix, it.wantMat)
}

// serveSet is serve-mixed's pass: every op at every size and variant as a
// served request and as the direct session call it reaches, grouped into
// bursts.
type serveSet struct {
	items    []*serveItem
	ops      []sessionOp // ops[i] is items[i]'s direct session call
	bursts   [][]int     // item indices of each (size, op) burst
	sessions []*lazySession
}

// lazySession is a direct session built on its first call, so that in a
// fresh process the server under test starts with cold process-wide
// caches.
type lazySession struct {
	n int
	s *cc.Clique
}

func (l *lazySession) get() (*cc.Clique, error) {
	if l.s == nil {
		s, err := cc.NewClique(l.n)
		if err != nil {
			return nil, err
		}
		l.s = s
	}
	return l.s, nil
}

func (set *serveSet) close() {
	for _, l := range set.sessions {
		if l.s != nil {
			l.s.Close()
		}
	}
}

// servePass draws the pass's inputs; oracle answers them.
func servePass(seed uint64) *serveSet {
	rng := newRand(seed, 3)
	set := &serveSet{}
	for _, n := range serveSizes {
		ls := &lazySession{n: n}
		set.sessions = append(set.sessions, ls)
		var byVariant [][]servedOp
		for v := 0; v < serveBurst; v++ {
			intA := randMat(rng, n, 1, 0, func() int64 { return rng.Int64N(7) })
			intB := randMat(rng, n, 1, 0, func() int64 { return rng.Int64N(7) })
			wA := randMat(rng, n, 0.25, cc.Inf, func() int64 { return rng.Int64N(32) })
			wB := randMat(rng, n, 0.25, cc.Inf, func() int64 { return rng.Int64N(32) })
			dense := graphs.GNP(n, 0.25, false, rng.Uint64())
			sparse := graphs.GNP(n, 1.5/float64(n), false, rng.Uint64())
			byVariant = append(byVariant, serveOps(ls, intA, intB, wA, wB, adjacency(dense), adjacency(sparse),
				dense, sparse, weightedFromMat(wA)))
		}
		for op := range byVariant[0] {
			var burst []int
			for _, ops := range byVariant {
				burst = append(burst, len(set.items))
				set.items = append(set.items, &serveItem{req: ops[op].req})
				set.ops = append(set.ops, ops[op].op)
			}
			set.bursts = append(set.bursts, burst)
		}
	}
	return set
}

// oracle answers every item by its direct session call: the reference
// answer and model cost each served answer must match.
func (set *serveSet) oracle() error {
	for i, op := range set.ops {
		out, st, err := op.call(nil)
		if err != nil {
			return fmt.Errorf("direct %s at n=%d: %w", op.method, len(set.items[i].req.A), err)
		}
		it := set.items[i]
		it.want = st
		switch x := out.(type) {
		case cc.Mat:
			it.wantMat = denseOf(x)
			set.ops[i].check = matCheck(it.wantMat)
		case int64:
			it.wantCount = x
			set.ops[i].check = countCheck(x)
		}
	}
	return nil
}

type servedOp struct {
	req serve.Request
	op  sessionOp
}

// serveOps pairs each served op with the direct session call it reaches
// (the server batches the products through the *Batch entry points, one
// item per request) and the driver or engine function below that.
func serveOps(ls *lazySession, intA, intB, wA, wB, adj, sadj cc.Mat, dense, sparse *graphs.Graph, weighted *graphs.Weighted) []servedOp {
	plan := func(n int) *ccmm.Plan { return ccmm.PlanSparse(n, ccmm.EngineAuto, ccmm.DefaultSparseThreshold) }
	direct := func(f func(s *cc.Clique) (any, cc.Stats, error)) func(*cc.Clique) (any, cc.Stats, error) {
		return func(*cc.Clique) (any, cc.Stats, error) {
			s, err := ls.get()
			if err != nil {
				return nil, cc.Stats{}, err
			}
			return f(s)
		}
	}
	product := func(op serve.Op, method, layer string, a, b cc.Mat, zero int64,
		mul func(s *cc.Clique, a, b cc.Mat) (cc.Mat, cc.Stats, error),
		drv func(p *ccmm.Plan, net *clique.Network, sc *ccmm.Scratch, a, b *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], ccmm.Route, error)) servedOp {
		return servedOp{
			req: serve.Request{Op: op, A: a, B: b},
			op: sessionOp{
				method: method,
				call: direct(func(s *cc.Clique) (any, cc.Stats, error) {
					m, st, err := mul(s, a, b)
					return m, st, err
				}),
				layer: layer,
				prepare: func(n int) func(*clique.Network, *ccmm.Scratch) error {
					pa, pb := rowMat(a, n, zero), rowMat(b, n, zero)
					return func(net *clique.Network, sc *ccmm.Scratch) error {
						_, _, err := drv(plan(n), net, sc, pa, pb)
						return err
					}
				},
			},
		}
	}
	return []servedOp{
		product(serve.OpMatMul, "MatMul", "ccmm.MulIntRouted", intA, intB, 0,
			func(s *cc.Clique, a, b cc.Mat) (cc.Mat, cc.Stats, error) { return s.MatMul(a, b) }, (*ccmm.Plan).MulIntRouted),
		product(serve.OpMatMulBool, "MatMulBool", "ccmm.MulBoolRouted", adj, adj, 0,
			func(s *cc.Clique, a, b cc.Mat) (cc.Mat, cc.Stats, error) { return s.MatMulBool(a, b) }, (*ccmm.Plan).MulBoolRouted),
		product(serve.OpDistanceProduct, "DistanceProduct", "ccmm.MulMinPlusRouted", wA, wB, cc.Inf,
			func(s *cc.Clique, a, b cc.Mat) (cc.Mat, cc.Stats, error) { return s.DistanceProduct(a, b) }, (*ccmm.Plan).MulMinPlusRouted),
		{
			req: serve.Request{Op: serve.OpAPSP, A: wA},
			op: sessionOp{
				method: "APSP",
				call: direct(func(s *cc.Clique) (any, cc.Stats, error) {
					res, st, err := s.APSP(weighted)
					if err != nil {
						return nil, st, err
					}
					return res.Dist, st, nil
				}),
				layer: "driver.APSPSemiring",
				prepare: func(n int) func(*clique.Network, *ccmm.Scratch) error {
					g := padWeighted(weighted, n)
					return func(net *clique.Network, _ *ccmm.Scratch) error {
						_, err := distance.APSPSemiring(net, g)
						return err
					}
				},
			},
		},
		{
			req: serve.Request{Op: serve.OpTriangles, A: adj},
			op: sessionOp{
				method: "CountTriangles",
				call: direct(func(s *cc.Clique) (any, cc.Stats, error) {
					c, st, err := s.CountTriangles(dense)
					return c, st, err
				}),
				layer: "driver.CountTriangles",
				prepare: graphDriver(dense, func(net *clique.Network, g *graphs.Graph) error {
					_, err := subgraph.CountTriangles(net, ccmm.EngineAuto, g)
					return err
				}),
			},
		},
		{
			req: serve.Request{Op: serve.OpSparseSquare, A: sadj},
			op: sessionOp{
				method: "SquareAdjacencySparse",
				call: direct(func(s *cc.Clique) (any, cc.Stats, error) {
					m, st, err := s.SquareAdjacencySparse(sparse)
					return m, st, err
				}),
				layer: "driver.SparseSquare",
				prepare: func(n int) func(*clique.Network, *ccmm.Scratch) error {
					g := padGraph(sparse, n)
					return func(net *clique.Network, sc *ccmm.Scratch) error {
						_, err := subgraph.SparseSquareScratch(net, sc, g)
						return err
					}
				},
			},
		},
	}
}

// serveLoad drives one server and accounts its answers.
type serveLoad struct {
	r     *run
	set   *serveSet
	seq   []int // seeded arrival order: burst index per arrival
	ten   []int // seeded tenant per arrival
	next  int
	reqID atomic.Int64
}

// newServeLoad draws the arrival sequence as seeded permutations of all
// bursts, one after another, so that every stretch of the run offers the
// same mix of sizes and ops and only their order depends on the seed.
func newServeLoad(r *run, set *serveSet, seed uint64) *serveLoad {
	rng := newRand(seed, 4)
	l := &serveLoad{r: r, set: set}
	for len(l.seq) < 4096 {
		l.seq = append(l.seq, rng.Perm(len(set.bursts))...)
	}
	for range l.seq {
		l.ten = append(l.ten, rng.IntN(len(serveTenants)))
	}
	return l
}

// answer is one request's outcome; due is its offset into the step.
type answer struct {
	due, lat, queueWait, service time.Duration
	overloaded                   bool
	err                          error
}

// stepResult is one fixed-rate step of the open loop.
type stepResult struct {
	rate       float64
	answers    []answer
	lateMax    time.Duration
	backlog    int // requests outstanding when the issuing window closed
	overloaded int
	elapsed    time.Duration
}

func (st stepResult) latencies() []time.Duration {
	var ds []time.Duration
	for _, a := range st.answers {
		if a.err == nil {
			ds = append(ds, a.lat)
		}
	}
	return ds
}

// sustained reports whether the step met the tail limit with no refusal,
// no growing backlog and a generator that kept its schedule.
func (st stepResult) sustained() bool {
	sum := summarize(st.latencies())
	if st.overloaded > 0 || sum.tailUnavailable || sum.tail > float64(serveTailLimit)/1e6 ||
		st.lateMax > serveLateBound {
		return false
	}
	// Little's law: at the limit, rate × limit requests are in flight.
	return float64(st.backlog) <= st.rate*serveTailLimit.Seconds()
}

// arrival returns the next burst of the seeded sequence, its requests
// addressed from one tenant.
func (l *serveLoad) arrival() []*serveItem {
	i := l.next % len(l.seq)
	l.next++
	var burst []*serveItem
	for _, k := range l.set.bursts[l.seq[i]] {
		it := *l.set.items[k]
		it.req.Tenant = serveTenants[l.ten[i]]
		burst = append(burst, &it)
	}
	return burst
}

// fire sends one request and checks its answer. An *OverloadError is the
// server's admission control refusing the offered rate; tolerate says the
// caller probes capacity and counts it as a missed limit, not a failure.
func (l *serveLoad) fire(srv *serve.Server, it *serveItem, due time.Time, tolerate bool) answer {
	req := l.reqID.Add(1)
	res := srv.Do(context.Background(), it.req)
	done := time.Now()
	l.r.tr.record("serve.request", 0, req, due, done)
	a := answer{lat: done.Sub(due), queueWait: res.QueueWait, service: res.Service}
	var over *serve.OverloadError
	if tolerate && errors.As(res.Err, &over) {
		a.overloaded, a.err = true, res.Err
		return a
	}
	if err := it.check(res); err != nil {
		a.err = err
		l.r.fail("serve %s n=%d: %v", it.req.Op, len(it.req.A), err)
	}
	return a
}

// pass sends the pass burst by burst from one tenant, each burst when the
// previous one was answered, and returns the results by item.
func (l *serveLoad) pass(srv *serve.Server) []serve.Result {
	results := make([]serve.Result, len(l.set.items))
	for _, burst := range l.set.bursts {
		var wg sync.WaitGroup
		for _, k := range burst {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := l.set.items[k].req
				req.Tenant = serveTenants[0]
				results[k] = srv.Do(context.Background(), req)
			}()
		}
		wg.Wait()
	}
	return results
}

// checkPass checks a served pass's answers against the oracle and its
// model cost, summed from the served Stats, against the run's first
// pass.
func (l *serveLoad) checkPass(results []serve.Result) {
	cost := newPassCost()
	for k, res := range results {
		l.r.attempted++
		it := l.set.items[k]
		if err := it.check(res); err != nil {
			l.r.fail("serve %s n=%d: %v", it.req.Op, len(it.req.A), err)
			continue
		}
		cost.add(res.Stats)
	}
	l.r.expectCost(cost)
}

// openLoop issues requests at a fixed rate for d, in bursts of
// serveBurst, each request on its own goroutine when it falls due, and waits until every one is answered.
func (l *serveLoad) openLoop(srv *serve.Server, rate float64, d time.Duration, tolerate bool) stepResult {
	st := stepResult{rate: rate}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		answered atomic.Int64
	)
	interval := time.Duration(serveBurst * float64(time.Second) / rate)
	start := time.Now()
	issued := 0
	for due := start; due.Sub(start) < d; due = due.Add(interval) {
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(due); late > st.lateMax {
			st.lateMax = late
		}
		for _, it := range l.arrival() {
			issued++
			l.r.attempted++
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := l.fire(srv, it, due, tolerate)
				a.due = due.Sub(start)
				answered.Add(1)
				mu.Lock()
				st.answers = append(st.answers, a)
				mu.Unlock()
			}()
		}
	}
	st.backlog = issued - int(answered.Load())
	wg.Wait()
	st.elapsed = time.Since(start)
	for _, a := range st.answers {
		if a.overloaded {
			st.overloaded++
		}
	}
	return st
}

// serveCounters are the server-side counts a step moves.
type serveCounters struct {
	gets, hits        int64
	rejected, expired int64
}

func countersOf(srv *serve.Server) serveCounters {
	p := srv.Pool()
	c := serveCounters{gets: p.Hits + p.Misses, hits: p.Hits}
	for _, t := range srv.Tenants() {
		c.rejected += t.Rejected
		c.expired += t.Expired
	}
	return c
}

// runServeMixed is the serve-mixed workload.
func runServeMixed(cfg config, r *run, vals map[string]float64) error {
	set := servePass(cfg.seed)
	defer set.close()
	l := newServeLoad(r, set, cfg.seed)
	shutdown := func(s *serve.Server) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			r.fail("server shutdown: %v", err)
		}
	}
	// The server's cold pass comes first, so that in a set-up process it
	// meets cold process-wide caches; set-up is the whole cold start, from
	// building the server until it answered the pass. A server's
	// first-use cost alone (session builds at five sizes of at most 64
	// nodes) is a few milliseconds, below the run-to-run noise once a
	// warm pass is subtracted.
	t0 := time.Now()
	srv := serve.New(serve.DefaultConfig())
	cold := l.pass(srv)
	if cfg.setupRep {
		r.setup = &setupRep{Build: time.Since(t0)}
		shutdown(srv)
	}
	if err := set.oracle(); err != nil {
		return err
	}
	// rounds and words are the served pass's; the direct calls must
	// charge the same.
	l.checkPass(cold)
	r.runPass(nil, set.ops, nil)
	if cfg.setupRep {
		return nil
	}
	if cfg.trace {
		defer shutdown(srv)
		return r.serveLayers(cfg, l, srv, set.ops, vals)
	}
	h0 := readHost()
	base := l.openLoop(srv, serveBaseRate, cfg.seconds, false)
	host := h0.to(readHost())
	vals["peak_rss_mb"] = peakRSSMB()
	l.checkPass(l.pass(srv)) // a warm served pass
	shutdown(srv)
	l.checkLate(base)
	p50, tail := base.windowed(serveWindows)
	vals["ops_per_s"] = float64(len(base.latencies())) / base.elapsed.Seconds()
	vals["latency_p50_ms"] = p50
	vals["latency_tail_ms"] = tail.tail
	r.latency = tail
	vals["rounds"] = float64(r.cost.rounds)
	vals["words"] = float64(r.cost.words)
	vals["alloc_mb_per_op"] = host.allocMB / float64(len(base.answers))
	var err error
	vals["setup_s"], err = r.setupSeconds(cfg)
	return err
}

// windowed splits the step by due time into n windows and returns the
// median over windows of each window's median and of its tail (the
// percentile rule applied within the window); the returned summary
// carries the median tail, its percentile and the per-window sample size.
func (st stepResult) windowed(n int) (p50 float64, tail latencySummary) {
	wins := make([][]time.Duration, n)
	span := st.elapsed / time.Duration(n)
	for _, a := range st.answers {
		if a.err == nil {
			w := min(int(a.due/span), n-1)
			wins[w] = append(wins[w], a.lat)
		}
	}
	var meds, tails, pcts []float64
	size := 0
	for _, w := range wins {
		s := summarize(w)
		meds = append(meds, s.p50)
		if !s.tailUnavailable {
			tails = append(tails, s.tail)
			pcts = append(pcts, s.tailPct)
		}
		size += s.n
	}
	tail = latencySummary{n: size / n, windows: n, tail: medianOf(tails), tailPct: medianOf(pcts)}
	return medianOf(meds), tail
}

// checkLate invalidates a base-rate step whose generator fell behind its
// schedule by more than serveLateBound.
func (l *serveLoad) checkLate(st stepResult) {
	if st.lateMax > serveLateBound {
		l.r.fail("open-loop generator fell %v behind at %g req/s (bound %v): the run is invalid",
			st.lateMax, st.rate, serveLateBound)
	}
}

// maxRate climbs the ladder of offered rates until one is not sustained.
// It returns the rate at which the tail crosses the limit, interpolated
// in log latency between the highest sustained rate and the first one
// that missed the limit; a step that failed by refusals, a growing
// backlog or a late generator gives no crossing, and the highest
// sustained rate stands.
func (l *serveLoad) maxRate(srv *serve.Server, base stepResult) float64 {
	last := base
	for _, rate := range serveLadder {
		st := l.openLoop(srv, rate, serveStep, true)
		sum := summarize(st.latencies())
		fmt.Fprintf(stderr, "perfbench: %6.0f req/s  p50 %7.2f ms  tail %8.2f ms (p%.1f)  refused %d  backlog %d  late %v\n",
			rate, sum.p50, sum.tail, sum.tailPct, st.overloaded, st.backlog, st.lateMax.Round(time.Microsecond))
		if !st.sustained() {
			return crossing(last, st)
		}
		last = st
	}
	return last.rate
}

// crossing interpolates the rate at which the tail reaches the limit
// between a sustained step and the next, failed one.
func crossing(ok, failed stepResult) float64 {
	lim := float64(serveTailLimit) / 1e6
	lo, hi := summarize(ok.latencies()), summarize(failed.latencies())
	if failed.overloaded > 0 || failed.lateMax > serveLateBound || hi.tailUnavailable ||
		hi.tail <= lim || lo.tail <= 0 || lo.tail >= lim {
		return ok.rate
	}
	f := math.Log(lim/lo.tail) / math.Log(hi.tail/lo.tail)
	return ok.rate + f*(failed.rate-ok.rate)
}

// serveLayers is serve-mixed's traced run: an untraced and a traced
// base-rate step, the server's own counters, and the direct session calls
// against their drivers.
func (r *run) serveLayers(cfg config, l *serveLoad, srv *serve.Server, ops []sessionOp, vals map[string]float64) error {
	tr := r.tr
	r.tr = nil
	plain := l.openLoop(srv, serveBaseRate, cfg.seconds/4, false)
	r.tr = tr
	c0 := countersOf(srv)
	h0 := readHost()
	dense0 := ccmm.DenseAllocs()
	traced := l.openLoop(srv, serveBaseRate, cfg.seconds/4, false)
	host := h0.to(readHost())
	c1 := countersOf(srv)
	for _, st := range []stepResult{plain, traced} {
		l.checkLate(st)
	}

	// The open loop fixes ops_per_s at the offered rate, so tracing's
	// cost shows in latency instead.
	vals["trace.overhead"] = summarize(plain.latencies()).p50 / summarize(traced.latencies()).p50
	vals["loadgen.late_max_ms"] = float64(traced.lateMax) / 1e6
	var waits, services []time.Duration
	for _, a := range traced.answers {
		waits = append(waits, a.queueWait)
		services = append(services, a.service)
	}
	ws := summarize(waits)
	vals["serve.queue_wait_p50_ms"] = ws.p50
	vals["serve.queue_wait_p99_ms"] = nearestRank(sortedMs(waits), 0.99)
	vals["serve.service_p50_ms"] = durMedian(services)
	if gets := c1.gets - c0.gets; gets > 0 {
		vals["serve.avg_batch"] = float64(len(traced.answers)) / float64(gets)
		vals["serve.pool_hit_rate"] = float64(c1.hits-c0.hits) / float64(gets)
	}
	vals["serve.rejected"] = float64(c1.rejected - c0.rejected)
	vals["serve.expired"] = float64(c1.expired - c0.expired)
	n := float64(len(traced.answers))
	vals["runtime.gc_cpu_fraction"] = host.gcFraction
	vals["runtime.gc_pause_ms"] = host.gcPauseMsec / n
	vals["ccmm.dense_allocs"] = float64(ccmm.DenseAllocs()-dense0) * float64(len(ops)) / n
	r.cost.layerValues(vals)

	// The capacity probe runs untraced, like the end-to-end figures.
	r.tr = nil
	var rates []float64
	for i := 0; i < serveClimbs; i++ {
		rates = append(rates, l.maxRate(srv, plain))
	}
	r.tr = tr
	vals["serve.max_rate_rps"] = medianOf(rates)

	// Session calls at the served sizes against their drivers; the ops'
	// calls carry their own sessions.
	var times passTimes
	r.runPass(nil, ops, &times)
	for m, ds := range times.byMethod {
		vals["algclique."+m+".p50_ms"] = durMedian(ds)
	}
	if err := r.driverLayers(nil, ops, 3, vals); err != nil {
		return err
	}
	kernelValues(serveSizes[len(serveSizes)-1], vals)
	return nil
}

package main

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric the benchmark reports. The end-to-end and
// per-layer tables below are the single source of BENCHMARK.json's metric
// lists (TestBenchmarkJSONMatchesRegistry keeps the two in step); moves
// and flat record, per metric, which end-to-end metric on which workload
// it should move and where it should stay flat.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
	moves, flat        string
}

// endToEnd are the user-visible metrics, printed on every workload with
// tracing off.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25,
		moves: "session workloads: calls per second of one closed-loop caller over its median pass; serve-mixed: completed requests per second at the base rate"},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25,
		moves: "median host latency per operation; serve latency runs from the request's due time"},
	{name: "latency_tail_ms", unit: "ms", better: "lower", bound: 0.25,
		moves: "the highest percentile with at least ten samples beyond it (printed beside the value)"},
	{name: "rounds", unit: "rounds", better: "lower", bound: 0.15,
		moves: "simulated rounds of one pass over the workload's seeded op sequence (exact)"},
	{name: "words", unit: "words", better: "lower", bound: 0.02,
		moves: "simulated words of one pass over the workload's seeded op sequence (exact)"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		moves: "in five fresh processes: closed loops, median build plus the sum over ops of the median cold-minus-warm latency; serve-mixed, median cold start of a server"},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.2,
		moves: "host bytes allocated per operation in the measured loop (closed loops: by the session calls alone)"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25,
		moves: "peak resident set of the benchmark process"},
}

// sessionMethods are the algclique methods the workloads call; each gets
// a per-call span metric and a wrapper-overhead metric.
var sessionMethods = []string{
	"MatMul", "MatMulBool", "DistanceProduct", "CountTriangles", "CountFourCycles",
	"APSPUnweighted", "APSP", "Girth", "SquareAdjacencyCSR", "SquareAdjacencySparse",
}

// driverFns are the algorithm drivers (distance/subgraph/girth) timed on
// a network the benchmark builds itself, with the session's inputs.
var driverFns = []string{"CountTriangles", "CountC4", "APSPSeidel", "APSPSemiring", "GirthDirected", "SparseSquare"}

// engineFns are the ccmm planner entry points timed the same way.
var engineFns = []string{"MulIntRouted", "MulBoolRouted", "MulMinPlusRouted", "MulIntCSRRouted"}

// enginePhases are the ccmm phases (engine/phase) that carry traffic on
// the workloads; each gets a rounds and a words metric per pass. The
// local-compute phases (mmfast encode/multiply/decode, mm3d multiply,
// mmcsr accumulate) charge nothing by construction and are left out.
var enginePhases = []string{
	"mmplan/census",
	"mmfast/distribute", "mmfast/combine", "mmfast/products", "mmfast/assemble",
	"mm3d/distribute", "mm3d/products", "mm3d/assemble",
	"mmsparse/census", "mmsparse/transpose", "mmsparse/spread", "mmsparse/forward",
	"mmsparse/gather", "mmsparse/accumulate",
	"mmcsr/transpose", "mmcsr/spread", "mmcsr/forward", "mmcsr/gather",
}

// kernels are the local matrix kernels timed on the block shape the
// engines multiply at the workload's clique size (see kernelShapes).
var kernels = []string{"ParMulInto", "MulBitInto", "MulMinPlusInto"}

// perLayer builds the per-layer table, printed with --trace 1. A metric of
// a layer a workload does not exercise reads 0 there.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better, moves, flat string) {
		out = append(out, metricDef{name: name, unit: unit, better: better, moves: moves, flat: flat})
	}
	for _, m := range sessionMethods {
		wl := "table1-dense"
		switch {
		case m == "SquareAdjacencyCSR":
			wl = "csr-square"
		case m == "SquareAdjacencySparse":
			wl = "serve-mixed"
		}
		add("algclique."+m+".p50_ms", "ms", "lower",
			"latency_p50_ms and ops_per_s on "+wl, "")
	}
	for _, m := range sessionMethods {
		flat := "csr-square"
		if m == "SquareAdjacencyCSR" {
			flat = "table1-dense"
		}
		add("algclique.overhead_ms."+m, "ms", "lower",
			"latency_p50_ms on serve-mixed (n ≤ 64, wrapper cost is a large share) and ops_per_s on table1-dense", flat)
	}
	for _, d := range driverFns {
		add("driver."+d+".ms", "ms", "lower", "ops_per_s on table1-dense", "csr-square")
	}
	for _, e := range engineFns {
		if e == "MulIntCSRRouted" {
			add("ccmm."+e+".ms", "ms", "lower", "latency_p50_ms on csr-square", "table1-dense")
		} else {
			add("ccmm."+e+".ms", "ms", "lower", "ops_per_s on table1-dense", "csr-square")
		}
	}
	for _, r := range []string{"sparse", "dense", "fallback"} {
		add("ccmm.routing."+r, "count", "lower", "rounds and latency_p50_ms on the workload whose products took the route", "")
	}
	add("ccmm.dense_allocs", "count", "lower", "alloc_mb_per_op; must stay 0 on csr-square", "csr-square")
	for _, p := range enginePhases {
		base := "ccmm." + strings.ReplaceAll(p, "/", ".")
		flat := "csr-square"
		if strings.HasPrefix(p, "mmcsr/") {
			flat = "table1-dense"
		}
		add(base+".rounds", "rounds", "lower", "rounds on the workloads running this engine", flat)
		add(base+".words", "words", "lower", "words on the workloads running this engine", flat)
	}
	for _, k := range kernels {
		add("matrix."+k+".ms", "ms", "lower", "ops_per_s on table1-dense", "csr-square")
		add("matrix."+k+".gops", "Gop/s", "higher", "ops_per_s on table1-dense", "csr-square")
	}
	add("transport.wire_over_direct", "ratio", "lower",
		"ops_per_s on table1-dense must not move when the two transports merge", "csr-square")
	add("clique.workers1_over_default", "ratio", "higher",
		"ops_per_s on table1-dense (parallel speed-up of the worker pool)", "csr-square")
	add("runtime.gc_cpu_fraction", "ratio", "lower", "latency_tail_ms and alloc_mb_per_op on every workload", "")
	add("runtime.gc_pause_ms", "ms/op", "lower", "latency_tail_ms and alloc_mb_per_op on every workload", "")
	add("serve.queue_wait_p50_ms", "ms", "lower", "latency_p50_ms and serve.max_rate_rps on serve-mixed", "table1-dense")
	add("serve.queue_wait_p99_ms", "ms", "lower", "latency_tail_ms and serve.max_rate_rps on serve-mixed", "table1-dense")
	add("serve.service_p50_ms", "ms", "lower", "latency_p50_ms and serve.max_rate_rps on serve-mixed", "table1-dense")
	add("serve.max_rate_rps", "1/s", "higher",
		"the capacity of serve-mixed: highest offered rate meeting the 100 ms tail limit without refusals or a growing backlog", "table1-dense")
	add("serve.avg_batch", "count", "higher", "serve.max_rate_rps on serve-mixed", "table1-dense")
	add("serve.pool_hit_rate", "ratio", "higher", "latency_tail_ms and setup_s on serve-mixed", "table1-dense")
	add("serve.rejected", "count", "lower", "serve.max_rate_rps on serve-mixed", "table1-dense")
	add("serve.expired", "count", "lower", "serve.max_rate_rps on serve-mixed", "table1-dense")
	add("loadgen.late_max_ms", "ms", "lower", "validity of serve-mixed latency figures", "table1-dense")
	add("trace.overhead", "ratio", "higher", "traced ÷ untraced ops_per_s; the cost of the benchmark's spans", "")
	return out
}

// tailIndex is the percentile rule: over n ascending samples it returns
// the index of the highest order statistic that still has at least ten
// samples beyond it, and that statistic's percentile. It needs n ≥ 11.
func tailIndex(n int) (idx int, pct float64, ok bool) {
	const beyond = 10
	if n < beyond+1 {
		return 0, 0, false
	}
	idx = n - 1 - beyond
	return idx, 100 * float64(idx+1) / float64(n), true
}

// latencySummary is the median and the tail of a latency sample.
type latencySummary struct {
	n, windows      int
	p50, tail       float64 // milliseconds
	tailPct         float64
	tailUnavailable bool
}

// sortedMs is a latency sample in milliseconds, ascending.
func sortedMs(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	return ms
}

// nearestRank is the nearest-rank q-quantile of an ascending sample.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}

func summarize(d []time.Duration) latencySummary {
	ms := sortedMs(d)
	s := latencySummary{n: len(ms), p50: median(ms)}
	if idx, pct, ok := tailIndex(len(ms)); ok {
		s.tail, s.tailPct = ms[idx], pct
	} else {
		s.tailUnavailable = true
	}
	return s
}

// median of an ascending sample (the mean of the middle two for even n).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return median(s)
}

func durMedian(ds []time.Duration) float64 { return median(sortedMs(ds)) }

// iterSuffix matches an iteration suffix such as "-0" … "-k".
var iterSuffix = regexp.MustCompile(`-[0-9]+$`)

// foldPhase maps a ledger phase name to its metric stem: the iteration
// suffix is dropped and "/" becomes ".", so "mmcsr/gather" reads
// "mmcsr.gather" and "seidel/square-3" reads "seidel.square".
func foldPhase(name string) string {
	return strings.ReplaceAll(iterSuffix.ReplaceAllString(name, ""), "/", ".")
}

// enginePhase reports whether a folded phase stem belongs to a ccmm
// engine (mm* phases; the drivers' own phases are not ccmm's).
func enginePhase(stem string) bool { return strings.HasPrefix(stem, "mm") }

// metricSet collects one run's printed metrics.
type metricSet map[string]metricValue

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(def metricDef, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[def.name] = metricValue{Value: v, Unit: def.unit}
}

// fill sets every metric of defs from vals, 0 where a workload has no
// value, and reports names in vals missing from defs (a registry bug).
func (m metricSet) fill(defs []metricDef, vals map[string]float64) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		m.set(d, vals[d.name])
	}
	var extra []string
	for k := range vals {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("perfbench: metrics missing from the registry: %s", strings.Join(extra, ", "))
	}
	return nil
}

// Command perfbench is the simulator's benchmark: it runs one named
// workload from a seed, checks every answer against an oracle computed
// outside the timed region, and prints each metric by name with its unit.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 a
// separate traced run prints the per-layer metrics and writes its spans.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this module against the checkout:
//
//	bash perfbench/run.sh --workload table1-dense --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A wrong answer, a model cost that differs between passes or from an
// earlier run of the same seed and binary, or an invalid open-loop run
// makes the command exit 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var stderr io.Writer = os.Stderr

// workload is one named benchmark workload.
type workload struct {
	name, why string
	run       func(cfg config, r *run, vals map[string]float64) error
}

// workloads, each with the reason it was chosen; the kernel block sides
// are kernelShapes at the workload's clique size.
var workloads = []workload{
	{"table1-dense", "Table 1 rows on one n=256 session: the only workload timing the local kernels, dense mmfast/mm3d engines and drivers; kernel blocks n/bilinear.Pick(n).D=64, ccmm.CbrtCeil(n)^2=49", runTable1},
	{"csr-square", "SquareAdjacencyCSR on GNP(10^4, 2/n) and (10^4, 8/n): CSR engine, census, sparse-link mailboxes and sorting, no dense kernel: the sparse round-bound target; kernel blocks 500 and 484, predicted flat", runCSRSquare},
	{"serve-mixed", "open loop: four tenants send bursts of all six served ops at n=16..64 to one serve.Server, so admission, batching, pool and wrapper costs dominate, not engines; kernel blocks 16 and 16", runServeMixed},
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	out      string
	setupRep bool // run as a set-up process: print one setupRep and exit
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var cfg config
	var secs, traceFlag int
	var describe, benchJSON bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", runSeconds, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces and model-cost records")
	flag.BoolVar(&describe, "describe", false, "print every metric with the workload and end-to-end metric it should move")
	flag.BoolVar(&cfg.setupRep, "setup-rep", false, "measure one set-up sample and print it as JSON (used by the run itself)")
	flag.BoolVar(&benchJSON, "benchmark-json", false, "print the BENCHMARK.json the registry defines")
	flag.Parse()
	switch {
	case describe:
		describeMetrics(os.Stdout)
		return 0
	case benchJSON:
		if err := writeBenchmarkJSON(os.Stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return 0
	}
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = traceFlag != 0
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || secs < 1 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or bad --seconds\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !cfg.setupRep {
		fmt.Fprintf(stderr, "perfbench: %s seed=%d seconds=%d trace=%v GOMAXPROCS=%d\n",
			wl.name, cfg.seed, secs, cfg.trace, runtime.GOMAXPROCS(0))
	}

	r := &run{}
	if cfg.trace {
		r.tr = newTracer()
	}
	vals := map[string]float64{}
	if err := wl.run(cfg, r, vals); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if r.cost == nil {
		fmt.Fprintln(stderr, "perfbench: the workload completed no pass")
		return 2
	}
	if cfg.setupRep {
		r.setup.Cost, r.setup.Attempted, r.setup.Failures = r.cost.record(), r.attempted, r.failures
		line, err := json.Marshal(r.setup)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Println(string(line))
		return 0
	}
	if !cfg.trace {
		if _, ok := vals["peak_rss_mb"]; !ok {
			vals["peak_rss_mb"] = peakRSSMB()
		}
		r.checkRecordedCost(cfg)
	} else {
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, cfg.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintln(stderr, "perfbench: spans written to", path)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted,
		Failed: int64(len(r.failures)), Metrics: metricSet{}}
	if err := res.Metrics.fill(defs, vals); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	printTable(os.Stdout, defs, res, r.latency)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// printTable prints the human-readable metric lines above the JSON line.
func printTable(w io.Writer, defs []metricDef, res result, lat latencySummary) {
	for _, d := range defs {
		extra := ""
		if d.name == "latency_tail_ms" {
			extra = fmt.Sprintf("  (p%.2f of %d samples)", lat.tailPct, lat.n)
			if lat.windows > 1 {
				extra = fmt.Sprintf("  (median of %d windows: p%.2f of ~%d samples each)", lat.windows, lat.tailPct, lat.n)
			}
		}
		fmt.Fprintf(w, "%-44s %16.6g %-8s%s\n", d.name, res.Metrics[d.name].Value, d.unit, extra)
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%-44s %16.6g (%d of %d attempted)\n", "failed_ratio", ratio, res.Failed, res.Attempted)
}

// recordedCost is the model cost a run stores for later runs of the same
// seed and binary to reproduce.
type recordedCost struct {
	Rounds  int64               `json:"rounds"`
	Words   int64               `json:"words"`
	Phases  map[string][2]int64 `json:"phases"`
	Routing map[string]int64    `json:"routing"`
}

func (c passCost) record() recordedCost {
	return recordedCost{Rounds: c.rounds, Words: c.words, Phases: c.phases, Routing: c.routing}
}

func (c recordedCost) cost() passCost {
	return passCost{rounds: c.Rounds, words: c.Words, phases: c.Phases, routing: c.Routing}
}

// checkRecordedCost compares this run's pass cost with the one an earlier
// run of the same seed and binary recorded, and records it if none was.
func (r *run) checkRecordedCost(cfg config) {
	if len(r.failures) > 0 {
		return
	}
	id, err := exeHash()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: cannot hash the executable; skipping the cross-run check:", err)
		return
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("cost-%s-seed%d-%s.json", cfg.workload, cfg.seed, id))
	cur := r.cost.record()
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		enc, _ := json.Marshal(cur)
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench: recording the model cost:", err)
		}
	case err != nil:
		r.fail("reading the recorded model cost: %v", err)
	default:
		var prev recordedCost
		if err := json.Unmarshal(data, &prev); err != nil {
			r.fail("decoding the recorded model cost: %v", err)
			return
		}
		if !prev.cost().equal(*r.cost) {
			r.fail("model cost %d rounds/%d words differs from an earlier run of this seed: %d/%d",
				r.cost.rounds, r.cost.words, prev.Rounds, prev.Words)
		}
	}
}

func exeHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

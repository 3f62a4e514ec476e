package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/serve"
)

func TestTailIndex(t *testing.T) {
	for _, tc := range []struct {
		n   int
		idx int
		pct float64
	}{
		{11, 0, 100.0 / 11}, {20, 9, 50}, {100, 89, 90}, {1000, 989, 99}, {1501, 1490, 100 * 1491.0 / 1501},
	} {
		idx, pct, ok := tailIndex(tc.n)
		if !ok || idx != tc.idx || pct != tc.pct {
			t.Errorf("tailIndex(%d) = %d, %g, %v; want %d, %g", tc.n, idx, pct, ok, tc.idx, tc.pct)
		}
		if beyond := tc.n - 1 - idx; beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want exactly 10", tc.n, beyond)
		}
	}
	if _, _, ok := tailIndex(10); ok {
		t.Error("tailIndex(10) has a tail; ten samples leave none with ten beyond it")
	}
	var ds []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := summarize(ds)
	if s.tail != 90 || s.tailPct != 90 || s.p50 != 50.5 || s.n != 100 {
		t.Errorf("summarize(1..100 ms) = %+v; want p50 50.5, tail 90 at p90", s)
	}
	if p99 := nearestRank(sortedMs(ds), 0.99); p99 != 99 {
		t.Errorf("nearest-rank p99 of 1..100 ms = %g, want 99", p99)
	}
}

func TestPassMedian(t *testing.T) {
	ms := func(xs ...int) []time.Duration {
		var ds []time.Duration
		for _, x := range xs {
			ds = append(ds, time.Duration(x)*time.Millisecond)
		}
		return ds
	}
	// Two kinds per pass; one outlier pass must not move the figure.
	all := ms(10, 100, 11, 101, 9, 99, 10, 400)
	if got := passMedian(all, 2); got != 55.5 {
		t.Errorf("passMedian = %g, want 55.5 (median of 55, 56, 54, 205)", got)
	}
}

func TestFoldPhase(t *testing.T) {
	for in, want := range map[string]string{
		"mmcsr/gather":       "mmcsr.gather",
		"mmplan/census":      "mmplan.census",
		"seidel/square-0":    "seidel.square",
		"seidel/parity-12":   "seidel.parity",
		"apsp3d/square-7":    "apsp3d.square",
		"girth-dir/doubling": "girth-dir.doubling",
	} {
		if got := foldPhase(in); got != want {
			t.Errorf("foldPhase(%q) = %q, want %q", in, got, want)
		}
	}
	c := newPassCost()
	c.add(cc.Stats{Rounds: 6, Words: 60, Routing: "dense", Phases: []cc.PhaseStat{
		{Name: "apsp3d/square-0", Rounds: 1, Words: 1},
		{Name: "mm3d/distribute", Rounds: 2, Words: 20},
		{Name: "apsp3d/square-1", Rounds: 1, Words: 1},
		{Name: "mm3d/distribute", Rounds: 2, Words: 38},
	}})
	if got := c.phases["mm3d.distribute"]; got != [2]int64{4, 58} {
		t.Errorf("folded mm3d.distribute = %v, want [4 58]", got)
	}
	if _, ok := c.phases["apsp3d.square"]; ok {
		t.Error("a driver phase was counted as an engine phase")
	}
	d := newPassCost()
	d.add(cc.Stats{Rounds: 6, Words: 60, Routing: "dense", Phases: []cc.PhaseStat{{Name: "mm3d/distribute", Rounds: 4, Words: 57}}})
	if c.equal(d) {
		t.Error("pass costs differing in one phase's words compare equal")
	}
}

// An injected wrong answer must be counted as failed, on every oracle.
func TestInjectedWrongAnswerCountsAsFailed(t *testing.T) {
	s, err := cc.NewClique(8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := cc.Mat{}
	for i := 0; i < 8; i++ {
		a = append(a, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	}
	want := refMulInt(a, a)
	wrong := want.Clone()
	wrong.Set(3, 5, wrong.At(3, 5)+1)
	op := func(ref *matrix.Dense[int64]) sessionOp {
		return sessionOp{
			method: "MatMul",
			call: func(s *cc.Clique) (any, cc.Stats, error) {
				m, st, err := s.MatMul(a, a)
				return m, st, err
			},
			check: matCheck(ref),
		}
	}
	r := &run{}
	r.runPass(s, []sessionOp{op(want)}, nil)
	if len(r.failures) != 0 || r.attempted != 1 {
		t.Fatalf("correct answer: %d failures of %d attempted", len(r.failures), r.attempted)
	}
	r.runPass(s, []sessionOp{op(wrong)}, nil)
	if len(r.failures) != 1 || r.attempted != 2 {
		t.Fatalf("injected wrong answer: %d failures of %d attempted, want 1 of 2", len(r.failures), r.attempted)
	}

	// The CSR oracle.
	g := gnpCSR(200, 3, 9)
	ref := squareCSRRef(g)
	if err := sameCSR(ref, squareCSRRef(g)); err != nil {
		t.Fatal(err)
	}
	bad := *ref
	bad.Val = append([]int64(nil), ref.Val...)
	bad.Val[len(bad.Val)/2]++
	if sameCSR(&bad, ref) == nil {
		t.Error("a CSR product with one wrong value passed")
	}

	// The serve oracle.
	it := &serveItem{req: serve.Request{Op: serve.OpTriangles}, wantCount: 7, want: cc.Stats{Rounds: 3, Words: 30}}
	if it.check(serve.Result{Count: 7, Stats: it.want}) != nil || it.check(serve.Result{Count: 8, Stats: it.want}) == nil {
		t.Error("the served triangle count oracle does not tell 7 from 8")
	}
	if it.check(serve.Result{Count: 7, Stats: cc.Stats{Rounds: 3, Words: 31}}) == nil {
		t.Error("a served answer charging other words than the direct call passed")
	}
}

// The CSR oracle agrees with a dense product, and the generator draws a
// symmetric loop-free adjacency with sorted rows.
func TestCSROracle(t *testing.T) {
	g := gnpCSR(300, 4, 5)
	dense := g.Dense(0, 1)
	want := refMulInt(dense, dense)
	got := squareCSRRef(g).Dense(0, 1)
	if err := sameMat(got, want); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u++ {
		if dense[u][u] != 0 {
			t.Fatalf("self-loop at %d", u)
		}
		for v := 0; v < g.N; v++ {
			if dense[u][v] != dense[v][u] {
				t.Fatalf("asymmetric at (%d, %d)", u, v)
			}
		}
	}
	if _, err := cc.CSRFromMat(dense, 0); err != nil {
		t.Fatal(err)
	}
}

// The block shapes, and the workloads' record of them.
func TestKernelShapes(t *testing.T) {
	for i, tc := range []struct{ n, fast, cube int }{{256, 64, 49}, {10000, 500, 484}, {64, 16, 16}} {
		if f, c := kernelShapes(tc.n); f != tc.fast || c != tc.cube {
			t.Errorf("kernelShapes(%d) = %d, %d; want %d, %d", tc.n, f, c, tc.fast, tc.cube)
		}
		why := workloads[i].why
		if !strings.Contains(why, fmt.Sprint(tc.fast)) || !strings.Contains(why, fmt.Sprint(tc.cube)) {
			t.Errorf("%s's why does not record its kernel blocks %d and %d", workloads[i].name, tc.fast, tc.cube)
		}
	}
}

// BENCHMARK.json is the registry's rendering, within the format's limits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBenchmarkJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf.Bytes()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with perfbench --benchmark-json")
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated metric name %q", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("bad workload %q", w.Name)
		}
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
}

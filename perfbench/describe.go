package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// runSeconds is how long one benchmark run measures.
const runSeconds = 20

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []endToEndJSON `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadJSON{w.name, w.why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, endToEndJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer() {
		f.PerLayer = append(f.PerLayer, perLayerJSON{d.name, d.unit, d.better})
	}
	return f
}

func writeBenchmarkJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(benchmarkSpec())
}

// describeMetrics prints every metric with what it measures or which
// end-to-end metric, on which workload, it should move, and where it
// should stay flat.
func describeMetrics(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end (tracing off):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-18s %-7s bound %.2f  %s\n", d.name, d.unit, d.bound, d.moves)
	}
	fmt.Fprintln(w, "per-layer (traced run):")
	for _, d := range perLayer() {
		flat := ""
		if d.flat != "" {
			flat = "; flat on " + d.flat
		}
		fmt.Fprintf(w, "  %-40s %-6s moves %s%s\n", d.name, d.unit, d.moves, flat)
	}
	lo, hi := kernelShapes(table1N)
	fmt.Fprintf(w, "kernel block sides at n=%d: Fast %d (n/bilinear.Pick(n).D), 3D %d (ccmm.CbrtCeil(n)^2)\n", table1N, lo, hi)
}

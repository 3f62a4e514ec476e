package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// hostSample is a snapshot of the runtime counters the host metrics are
// deltas of.
type hostSample struct {
	allocBytes    uint64
	gcCPU, allCPU float64
	gcPauseSec    float64
}

var hostKeys = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readHost() hostSample {
	s := make([]metrics.Sample, len(hostKeys))
	for i, k := range hostKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	var h hostSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		h.allCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		h.gcPauseSec = histTotal(s[3].Value.Float64Histogram())
	}
	return h
}

// histTotal approximates a histogram's sum by its bucket midpoints (the
// runtime keeps no exact sum of pause times).
func histTotal(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// hostDelta is what the runtime counted between two samples.
type hostDelta struct {
	allocMB     float64
	gcFraction  float64
	gcPauseMsec float64
}

func (a hostSample) to(b hostSample) hostDelta {
	d := hostDelta{
		allocMB:     float64(b.allocBytes-a.allocBytes) / 1e6,
		gcPauseMsec: (b.gcPauseSec - a.gcPauseSec) * 1e3,
	}
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		d.gcFraction = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: hostKeys[0]}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

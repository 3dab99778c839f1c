package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MiB;
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rtSample is a point-in-time read of the runtime counters the benchmark
// differences across a measured phase.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: u(0), gcCycles: u(1), gcCPU: f(2), totalCPU: f(3)}
}

// rtDelta is the runtime work done between two samples.
type rtDelta struct {
	AllocBytes float64
	GCCycles   float64
	GCCPUFrac  float64
}

func (a rtSample) to(b rtSample) rtDelta {
	return rtDelta{
		AllocBytes: float64(b.allocBytes - a.allocBytes),
		GCCycles:   float64(b.gcCycles - a.gcCycles),
		GCCPUFrac:  ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
}

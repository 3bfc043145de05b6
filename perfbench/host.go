package main

import (
	"os"
	"runtime"
	"strings"
	"time"
)

// hostInfo describes the machine a result set was measured on. The cost
// of one time.Now pair lets a reader judge the traced run's overhead.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpuModel(),
		"go_version":  runtime.Version(),
		"now_pair_ns": nowPairNs(),
		"cold_setups": coldSetups,
		"min_reps":    minReps,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// nowPairNs is the median cost of two back-to-back time.Now calls with
// the subtraction a timer makes, over a few batches.
func nowPairNs() float64 {
	const n = 200000
	var batches []float64
	var sink time.Duration
	for b := 0; b < 5; b++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			sink += time.Since(s)
		}
		batches = append(batches, float64(time.Since(t))/n)
	}
	_ = sink
	return median(batches)
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/disk"
	"repro/internal/trace"
)

var bg = context.Background()

// workload is one named set of inputs the benchmark runs.
type workload interface {
	name() string
	// gen writes the inputs for opt.seed into opt.dir. It runs in a child
	// process, before anything is timed.
	gen(opt options) error
	// prepare loads the inputs (untimed) and returns one timed
	// repetition.
	prepare(opt options) (repFunc, error)
}

// coldSetupper is a workload whose set-up is measured in fresh
// processes; the others time a set-up inside every repetition.
type coldSetupper interface {
	coldSetup(opt options) (float64, error)
}

// procsPinner is a workload measured with a fixed GOMAXPROCS; the others
// run with the runtime's default.
type procsPinner interface {
	maxProcs() int
}

// repFunc runs the timed pipeline once. tr is nil in untraced runs.
type repFunc func(tr *tracer) (repResult, error)

// repResult is one repetition's outcome.
type repResult struct {
	setupS  float64 // per-repetition set-up (fleet, scrubd)
	wallS   float64
	opsPerS float64
	events  int64 // simulator events, or requests for scrubd
	// decideUs and feedUs are scrubd's client-observed latencies.
	decideUs, feedUs []float64
	digest           string
	work             string // the simulated work behind the timing, for the log
	// attempted and failed count the repetition's operations.
	attempted, failed int64
	// peakRSSMB is the process's peak RSS once the repetition ended. The
	// run reports it after the first, so the figure does not grow with
	// the number of repetitions a fast host fits in.
	peakRSSMB float64
}

// workloads is the benchmark's workload set.
var workloads = []workload{
	&campaign{label: "campaign-busy", profile: "MSRusr1", span: 5 * time.Hour, format: trace.FormatMSR, drive: disk.HitachiUltrastar15K450},
	&campaign{label: "campaign-idle", profile: "HPc3t3d0", span: 10 * time.Hour, format: trace.FormatCello, cached: true, drive: disk.DemoSmall},
	&fleetWorkload{},
	&scrubdWorkload{},
}

// minReps is the fewest repetitions a run makes, whatever --seconds says.
const minReps = 3

// measured is what a run reports.
type measured struct {
	reps              []repResult
	metrics           map[string]metric
	attempted, failed int64
	layers            []layerValue
}

// measure runs the workload's repetitions for opt.seconds and derives the
// run's metrics. An untraced run spends the whole budget untraced; a
// traced run spends half of it untraced (the reference for the digest,
// the tracing overhead and the runtime counters) and half traced.
func measure(w workload, opt options) (*measured, error) {
	var setups []float64
	if _, ok := w.(coldSetupper); ok {
		for i := 0; i < coldSetups; i++ {
			out, err := spawnOut("setup", opt)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, s)
		}
	}
	rep, err := w.prepare(opt)
	if err != nil {
		return nil, err
	}

	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.traced {
		budget /= 2
	}
	rt := startRuntimeStats()
	reps, err := repeat(rep, nil, budget)
	if err != nil {
		return nil, err
	}
	out := &measured{reps: reps, metrics: map[string]metric{}}
	untraced := rt.stop(reps)
	var decide, feed []float64
	for _, r := range reps {
		decide = append(decide, r.decideUs...)
		feed = append(feed, r.feedUs...)
	}
	if len(decide) > 0 {
		untraced["scrubd.decide_p50_us"] = quantile(decide, 0.50)
		untraced["scrubd.decide_p99_us"] = quantile(decide, 0.99)
		untraced["scrubd.decide_samples"] = float64(len(decide))
		untraced["scrubd.feed_p50_us"] = quantile(feed, 0.50)
	}
	if len(setups) == 0 {
		for _, r := range reps {
			setups = append(setups, r.setupS)
		}
	}
	ref := reps[0].digest
	for _, r := range reps {
		out.attempted += r.attempted
		out.failed += r.failed
		if r.digest != ref {
			out.failed++
		}
	}

	if !opt.traced {
		m := out.metrics
		m["setup_s"] = metric{median(setups), "s"}
		m["wall_s"] = metric{median(field(reps, func(r repResult) float64 { return r.wallS })), "s"}
		m["ops_per_s"] = metric{median(field(reps, func(r repResult) float64 { return r.opsPerS })), "1/s"}
		m["peak_rss_mb"] = metric{reps[0].peakRSSMB, "MB"}
		return out, nil
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := repeat(rep, tr, budget)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	for _, r := range traced {
		out.attempted += r.attempted
		out.failed += r.failed
		if r.digest != ref {
			out.failed++
		}
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	wall := median(field(reps, func(r repResult) float64 { return r.wallS }))
	twall := median(field(traced, func(r repResult) float64 { return r.wallS }))
	tr.set("trace.overhead_frac", twall/wall-1)
	out.layers = tr.layers(len(traced), shares, untraced)
	for _, l := range out.layers {
		out.metrics[l.name] = metric{l.value, l.unit}
	}
	if err := tr.writeSpans(filepath.Join(filepath.Dir(opt.dir), "spans-"+opt.workload+".jsonl")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
	return out, nil
}

// repeat runs rep until the budget is spent, at least minReps times. A
// repetition that would overrun the budget, judged by the longest one so
// far, is not started. Each starts from a collected heap.
func repeat(rep repFunc, tr *tracer, budget time.Duration) ([]repResult, error) {
	start := time.Now()
	var reps []repResult
	var longest time.Duration
	for {
		runtime.GC()
		t := time.Now()
		var r repResult
		var err error
		if tr != nil {
			spanned(tr, "rep", func() {
				tr.labeled("rep", func() { r, err = rep(tr) })
			})
		} else {
			r, err = rep(tr)
		}
		if err != nil {
			return nil, err
		}
		r.peakRSSMB = peakRSSMB()
		reps = append(reps, r)
		if d := time.Since(t); d > longest {
			longest = d
		}
		if len(reps) >= minReps && time.Since(start)+longest > budget {
			return reps, nil
		}
	}
}

// runtimeStats samples the Go runtime around the untraced repetitions.
// The traced run reports these, and scrubd's client latencies, from its
// untraced half.
type runtimeStats struct {
	mem     runtime.MemStats
	samples []metrics.Sample
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func startRuntimeStats() *runtimeStats {
	rt := &runtimeStats{}
	for _, name := range cpuMetrics {
		rt.samples = append(rt.samples, metrics.Sample{Name: name})
	}
	metrics.Read(rt.samples)
	runtime.ReadMemStats(&rt.mem)
	return rt
}

// stop returns the runtime layer's metrics per repetition.
func (rt *runtimeStats) stop(reps []repResult) map[string]float64 {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	now := make([]metrics.Sample, len(rt.samples))
	copy(now, rt.samples)
	metrics.Read(now)
	gcCPU := now[0].Value.Float64() - rt.samples[0].Value.Float64()
	allCPU := now[1].Value.Float64() - rt.samples[1].Value.Float64()
	n := float64(len(reps))
	var events int64
	for _, r := range reps {
		events += r.events
	}
	out := map[string]float64{
		"runtime.gc_cycles": float64(mem.NumGC-rt.mem.NumGC) / n,
		"runtime.alloc_mb":  float64(mem.TotalAlloc-rt.mem.TotalAlloc) / 1e6 / n,
	}
	if allCPU > 0 {
		out["runtime.gc_cpu_share"] = gcCPU / allCPU
	}
	if events > 0 {
		out["runtime.allocs_per_event"] = float64(mem.Mallocs-rt.mem.Mallocs) / float64(events)
	}
	return out
}

func field(reps []repResult, f func(repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile of v (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1e3
		}
	}
	return 0
}

// spawnOut runs this binary in a child mode ("gen" or "setup"), waits
// for it and returns its standard output.
func spawnOut(mode string, opt options) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, mode,
		"--workload", opt.workload,
		"--seed", strconv.FormatInt(opt.seed, 10),
		"--dir", opt.dir,
		"--scale", strconv.FormatFloat(opt.scale, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"
)

// tracer collects a traced run's per-layer numbers. Spans mark the
// coarse boundaries (a repetition and its phases); per-call wrappers add
// to timers and counters instead, which keeps a multi-million-call run
// in bounded memory. Everything stays in memory and is written once the
// run ends. A tracer is used from the repetition's goroutine only.
type tracer struct {
	t0     time.Time
	spans  []span
	cur    int // the open span new spans are children of; 0 is the root
	timers map[string]*timer
	sums   map[string]float64
	fixed  map[string]float64
	ctx    context.Context // carries the current pprof labels
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// timer accumulates time spent in one wrapped call.
type timer struct{ ns int64 }

func (t *timer) add(d time.Duration) { t.ns += int64(d) }

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ctx: context.Background(), timers: map[string]*timer{}, sums: map[string]float64{}, fixed: map[string]float64{}}
}

// spanned runs fn inside a span named name, a child of the open span.
// With a nil tracer it just runs fn.
func spanned(tr *tracer, name string, fn func()) {
	if tr == nil {
		fn()
		return
	}
	parent := tr.cur
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(tr.t0))})
	tr.cur = len(tr.spans)
	fn()
	tr.spans[tr.cur-1].End = int64(time.Since(tr.t0))
	tr.cur = parent
}

// timer returns the named timer; its total is reported in seconds.
func (tr *tracer) timer(name string) *timer {
	t := tr.timers[name]
	if t == nil {
		t = &timer{}
		tr.timers[name] = t
	}
	return t
}

// add sums a per-repetition value; set records a run-wide one.
func (tr *tracer) add(name string, v float64) { tr.sums[name] += v }
func (tr *tracer) set(name string, v float64) { tr.fixed[name] = v }

// labeled runs fn under the pprof label perfbench=<value>, which also
// marks every goroutine fn starts: "rep" for a traced repetition,
// "wrapped" for a call the tracer times as a whole. Labels revert to the
// tracer's context afterwards.
func (tr *tracer) labeled(value string, fn func()) {
	parent := tr.ctx
	pprof.Do(parent, pprof.Labels("perfbench", value), func(ctx context.Context) {
		tr.ctx = ctx
		fn()
	})
	tr.ctx = parent
}

// layerValue is one per-layer metric.
type layerValue struct {
	name, unit string
	value      float64
}

// layerMetrics is every per-layer metric a traced run reports, in
// report order. A workload that does no work in a layer reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"trace.records", "count"}, {"trace.decode_s", "s"}, {"trace.input_mb", "MB"},
	{"idlesim.intervals", "count"}, {"idlesim.service_calls", "count"}, {"optimize.tune_s", "s"},
	{"disk.service_calls", "count"}, {"disk.verify_calls", "count"}, {"disk.service_s", "s"},
	{"disk.cache_hits", "count"}, {"disk.media_ops", "count"},
	{"sim.events", "count"}, {"blockdev.submitted", "count"}, {"blockdev.collisions", "count"},
	{"blockdev.fg_mean_wait_ms", "ms"}, {"scrub.bytes", "B"}, {"scrub.requests", "count"},
	{"fleet.slice_s", "s"}, {"fleet.members", "count"}, {"fleet.checkpoint_kb", "kB"}, {"par.cpu_util", "ratio"},
	{"scrubd.decide_handler_us", "us"}, {"scrubd.feed_handler_us", "us"}, {"scrubd.http_overhead_us", "us"},
	{"scrubd.decide_p50_us", "us"}, {"scrubd.decide_p99_us", "us"}, {"scrubd.decide_samples", "count"},
	{"scrubd.feed_p50_us", "us"}, {"scrubd.backpressure", "count"}, {"scrubd.devices", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_share", "ratio"}, {"runtime.alloc_mb", "MB"},
	{"runtime.allocs_per_event", "count"},
	{"trace.overhead_frac", "ratio"}, {"attrib.wall_s", "s"}, {"attrib.residual_s", "s"},
}

// shareModules are the modules whose CPU shares a traced run reports.
var shareModules = []string{
	"trace", "idlesim", "optimize", "disk", "sim", "blockdev", "iosched", "scrub", "schedpolicy",
	"core", "replay", "fault", "fleet", "par", "scrubd", "arima", "stats", "obs", "perfbench", "runtime",
}

// wrapperTimers are the timers whose seconds stand in for their layers
// in the wall-time account; the profile charges everything else.
var wrapperTimers = []string{"trace.decode_s", "optimize.tune_s", "disk.service_s"}

// layers turns the traced repetitions' totals into per-repetition
// metrics, adds the profile's CPU shares and the runtime counters, and
// accounts for the traced wall time: wrapper-timed seconds plus the
// profile-charged seconds of the repetition's goroutines outside the
// wrappers, with the rest printed as the residual.
func (tr *tracer) layers(reps int, prof *profileShares, untraced map[string]float64) []layerValue {
	n := float64(reps)
	vals := map[string]float64{}
	for k, v := range tr.sums {
		vals[k] = v / n
	}
	for k, t := range tr.timers {
		vals[k] = float64(t.ns) / 1e9 / n
	}
	for k, v := range tr.fixed {
		vals[k] = v
	}
	for k, v := range untraced {
		vals[k] = v
	}
	vals["attrib.wall_s"] = vals["wall_s"]
	account := vals["wall_s"]
	for _, k := range wrapperTimers {
		account -= vals[k]
	}
	for _, s := range prof.unwrapped {
		account -= s / n
	}
	vals["attrib.residual_s"] = account

	var out []layerValue
	for _, m := range layerMetrics {
		out = append(out, layerValue{m.name, m.unit, vals[m.name]})
	}
	for _, mod := range shareModules {
		share := 0.0
		if prof.cpuTotal > 0 {
			share = prof.cpu[mod] / prof.cpuTotal
		}
		out = append(out, layerValue{mod + ".cpu_share", "ratio", share})
	}
	for _, mod := range shareModules {
		out = append(out, layerValue{mod + ".charged_s", "s", prof.unwrapped[mod] / n})
	}
	return out
}

// printLayerTable writes the per-layer table, one layer per line.
func printLayerTable(workload string, layers []layerValue) {
	fmt.Printf("# per-layer, %s (per repetition; shares of process CPU; charged_s = profile seconds of the repetition's goroutines outside the timed wrappers)\n", workload)
	byPrefix := map[string][]string{}
	var order []string
	for _, l := range layers {
		mod := l.name[:strings.IndexByte(l.name, '.')]
		if _, ok := byPrefix[mod]; !ok {
			order = append(order, mod)
		}
		if l.value != 0 {
			byPrefix[mod] = append(byPrefix[mod], fmt.Sprintf("%s=%.4g%s", l.name[len(mod)+1:], l.value, unitSuffix(l.unit)))
		} else if _, ok := byPrefix[mod]; !ok {
			byPrefix[mod] = nil
		}
	}
	for _, mod := range order {
		if len(byPrefix[mod]) > 0 {
			fmt.Printf("#   %-12s %s\n", mod, strings.Join(byPrefix[mod], "  "))
		}
	}
}

func unitSuffix(u string) string {
	switch u {
	case "count", "ratio":
		return ""
	}
	return u
}

// writeSpans writes the spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

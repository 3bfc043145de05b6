package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/idlesim"
	"repro/internal/optimize"
	"repro/internal/replay"
	"repro/internal/trace"
)

// campaign is the paper's recipe as a user runs it on a trace file: open
// the trace, tune the request size and wait threshold from its idle
// intervals (Section V-D), then replay it under the tuned Waiting policy
// and read the Report.
type campaign struct {
	label   string
	profile string        // trace catalog entry that synthesises the input
	span    time.Duration // virtual length of the trace at scale 1
	format  trace.Format  // encoding of the generated raw file
	// cached makes the set-up compile the raw file to the columnar cache;
	// the timed pipeline then reads the cache.
	cached bool
	// drive is the simulated drive.
	drive func() disk.Model
}

// coldSetups is how many fresh processes measure a campaign's set-up;
// the run reports their median.
const coldSetups = 15

// goal is the administrator's slowdown goal: the scrubtune defaults.
var goal = optimize.Goal{MeanSlowdown: time.Millisecond, MaxSlowdown: 50400 * time.Microsecond}

func (c *campaign) name() string { return c.label }

func (c *campaign) rawPath(dir string) string   { return filepath.Join(dir, c.profile+".trace") }
func (c *campaign) cachePath(dir string) string { return filepath.Join(dir, c.profile+".cache") }

// inputPath is the file the timed pipeline opens.
func (c *campaign) inputPath(dir string) string {
	if c.cached {
		return c.cachePath(dir)
	}
	return c.rawPath(dir)
}

// gen writes the synthetic trace in the workload's real-world encoding.
func (c *campaign) gen(opt options) error {
	syn, ok := trace.ByName(c.profile)
	if !ok {
		return fmt.Errorf("no trace profile %q", c.profile)
	}
	src := syn.Source(opt.seed, time.Duration(float64(c.span)*opt.scale))
	f, err := os.Create(c.rawPath(opt.dir))
	if err != nil {
		return err
	}
	switch c.format {
	case trace.FormatMSR:
		err = trace.WriteMSR(f, src, "bench", 0)
	case trace.FormatCello:
		err = trace.WriteCello(f, src, 0)
	default:
		err = fmt.Errorf("no writer for %v", c.format)
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coldSetup is the program-side set-up a user pays before the trace is
// opened, measured in a fresh process: building the drive's geometry
// tables and, for the cached workload, compiling the raw trace to the
// columnar cache.
func (c *campaign) coldSetup(opt options) (float64, error) {
	t0 := time.Now()
	m := c.drive()
	if _, err := m.NewDevice(); err != nil {
		return 0, err
	}
	if c.cached {
		src, err := trace.Open(c.rawPath(opt.dir), trace.FormatUnknown)
		if err != nil {
			return 0, err
		}
		_, err = trace.BuildCache(c.cachePath(opt.dir), src)
		trace.CloseSource(src)
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// prepare returns the timed repetition. The cold set-ups have already
// left the cache file behind.
func (c *campaign) prepare(opt options) (repFunc, error) {
	path := c.inputPath(opt.dir)
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	inputMB := float64(st.Size()) / 1e6
	m := c.drive()
	rep := func(tr *tracer) (repResult, error) {
		r, err := c.rep(path, m, opt.plantSpin, tr)
		if tr != nil {
			tr.set("trace.input_mb", inputMB)
		}
		return r, err
	}
	return rep, nil
}

// rep runs the pipeline once. Untraced, it calls the public entry points
// exactly as a user would; traced, it splits the tune step into its two
// calls and wraps the trace source and the tuner's service function with
// timers. Both paths run every device call through the benchmark's
// device wrapper, which carries the planted slowdown.
func (c *campaign) rep(path string, m disk.Model, spin time.Duration, tr *tracer) (repResult, error) {
	var out repResult
	dm := &benchModel{DeviceModel: m, spin: spin, tr: tr}

	t0 := time.Now()
	raw, err := trace.Open(path, trace.FormatUnknown)
	if err != nil {
		return out, err
	}
	defer trace.CloseSource(raw)
	var src trace.Source = raw
	if tr != nil {
		src = &timedSource{Source: raw, t: tr.timer("trace.decode_s")}
	}

	var sys *core.System
	var choice optimize.Choice
	spanned(tr, "tune", func() {
		if tr == nil {
			sys, choice, err = core.NewTunedSource(src, m, goal, core.Staggered, core.WithDevice(dm))
		} else {
			sys, choice, err = tracedTune(src, m, dm, tr)
		}
	})
	if err != nil {
		return out, err
	}
	sectors := src.DiskSectors()
	if err := src.Reset(); err != nil {
		return out, err
	}

	counted := &countingSource{Source: src}
	sys.Start()
	ts := time.Now()
	var res *replay.Result
	spanned(tr, "replay", func() {
		res, err = (&replay.Replayer{}).RunSource(sys.Sim, sys.Queue, counted, sectors)
	})
	if err != nil {
		return out, err
	}
	simS := time.Since(ts).Seconds()
	report := sys.Report()
	out.wallS = time.Since(t0).Seconds()

	out.opsPerS = float64(report.Events) / simS
	out.events = report.Events
	out.attempted = counted.n
	out.failed = counted.n - res.Requests
	if report.FgRequests != res.Requests {
		out.failed++
	}
	out.work = fmt.Sprintf("records=%d events=%d req_sectors=%d threshold=%v", res.Requests, report.Events, choice.ReqSectors, choice.Threshold)
	out.digest = digest(report, res.Requests, res.Bytes, res.Collisions, res.Span,
		res.RespTotal, res.RespMax, res.WaitTotal, res.WaitMax, choice.ReqSectors, choice.Threshold)
	if tr != nil {
		tr.add("trace.records", float64(counted.n))
		tr.add("sim.events", float64(report.Events))
		qs := sys.Queue.Stats()
		tr.add("blockdev.submitted", float64(qs.Submitted[0]+qs.Submitted[1]))
		tr.add("blockdev.collisions", float64(qs.Collisions))
		tr.add("blockdev.fg_mean_wait_ms", res.MeanWait()*1e3)
		tr.add("scrub.bytes", float64(report.ScrubbedBytes))
		tr.add("scrub.requests", float64(sys.Scrubber.Stats().Requests))
		dm.flush(tr)
		tr.add("wall_s", out.wallS)
	}
	return out, nil
}

// tracedTune is core.NewTunedSource split into its calls so that each is
// timed: the gap pass over the source, then the tuner with a counting
// service function. The resulting system is built with the same options
// NewTunedSource uses.
func tracedTune(src trace.Source, m disk.Model, dm disk.DeviceModel, tr *tracer) (*core.System, optimize.Choice, error) {
	in, err := idlesim.InputFromSource(src)
	if err != nil {
		return nil, optimize.Choice{}, err
	}
	tr.add("idlesim.intervals", float64(len(in.Intervals)))
	svc := idlesim.ScrubService(m)
	var calls int64
	counted := func(sectors int64) time.Duration {
		calls++
		return svc(sectors)
	}
	tune := tr.timer("optimize.tune_s")
	t := time.Now()
	var choice optimize.Choice
	tr.labeled("wrapped", func() {
		choice, err = optimize.Tuner{Workers: 1}.Tune(bg, in, goal, counted)
	})
	tune.add(time.Since(t))
	tr.add("idlesim.service_calls", float64(calls))
	if err != nil {
		return nil, optimize.Choice{}, err
	}
	sys, err := core.New(&m,
		core.WithAlgorithm(core.Staggered),
		core.WithPolicy(core.PolicyWaiting),
		core.WithRequestBytes(choice.ReqSectors*disk.SectorSize),
		core.WithWaitThreshold(choice.Threshold),
		core.WithDevice(dm))
	return sys, choice, err
}

// countingSource counts the records the replay decodes.
type countingSource struct {
	trace.Source
	n int64
}

func (s *countingSource) Next(rec *trace.Record) error {
	err := s.Source.Next(rec)
	if err == nil {
		s.n++
	}
	return err
}

// timedSource charges the time spent in Next to a timer.
type timedSource struct {
	trace.Source
	t *timer
}

func (s *timedSource) Next(rec *trace.Record) error {
	t := time.Now()
	err := s.Source.Next(rec)
	s.t.add(time.Since(t))
	return err
}

// digest hashes the Go-syntax form of a run's simulated outputs. The %#v
// verb prints every field of a struct and ignores String methods, so a
// report's rounded one-line summary never stands in for its counters.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%#v|", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

package main

import (
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fleet"
)

// fleetWorkload is a sharded fleet campaign restarted from a
// mid-campaign checkpoint: the only parallel workload and the only one
// that parks and hydrates members between slices.
type fleetWorkload struct{}

// Fleet shape at scale 1: members per class, the park cadence, the
// checkpoint instant and the horizon. The horizon lies a whole number of
// slices past the checkpoint so that the benchmark's slice-by-slice
// drive meets exactly the boundaries Engine.Run would use.
const (
	fleetMembers    = 4
	fleetSlice      = 10 * time.Second
	fleetCheckpoint = 20 * time.Minute
	fleetSlices     = 150
	fleetResumes    = 20 // set-ups timed per repetition
)

func (fleetWorkload) name() string { return "fleet" }

func fleetPath(dir string) string { return filepath.Join(dir, "fleet.ckpt") }

func fleetSize(scale float64) int {
	n := int(float64(fleetMembers)*scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// fleetClasses mixes two scrub policies on the small demo disk with a
// Waiting-policy flash class, all under uniform LSE arrivals and no
// foreground traffic.
func fleetClasses(n int) []fleet.MemberClass {
	hdd := disk.DemoSmall()
	return []fleet.MemberClass{
		{Name: "hdd-fixed", Count: n, Config: core.Config{
			Model: &hdd, Algorithm: core.Sequential, Policy: core.PolicyFixedDelay,
			Delay: 20 * time.Millisecond, ReqBytes: 256 << 10, AutoRepair: true,
			Faults: fault.Uniform{RatePerHour: 4},
		}},
		{Name: "hdd-waiting", Count: n, Config: core.Config{
			Model: &hdd, Algorithm: core.Staggered, Regions: 64, Policy: core.PolicyWaiting,
			WaitThreshold: 50 * time.Millisecond, ReqBytes: 256 << 10, AutoRepair: true,
			Faults: fault.Uniform{RatePerHour: 4},
		}},
		{Name: "ssd-waiting", Count: n, Config: core.Config{
			Device: disk.DemoSSD(), Algorithm: core.Staggered, Policy: core.PolicyWaiting,
			ReqBytes: 256 << 10, AutoRepair: true,
			Faults: fault.Uniform{RatePerHour: 4},
		}},
	}
}

// gen runs the campaign to the checkpoint and writes it.
func (fleetWorkload) gen(opt options) error {
	e, err := fleet.New(fleet.Config{Shards: 6, Slice: fleetSlice, Seed: opt.seed}, fleetClasses(fleetSize(opt.scale)))
	if err != nil {
		return err
	}
	if err := e.Advance(bg, fleetCheckpoint); err != nil {
		return err
	}
	return e.CheckpointFile(fleetPath(opt.dir))
}

func (fleetWorkload) prepare(opt options) (repFunc, error) {
	path := fleetPath(opt.dir)
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	horizon := fleetCheckpoint + fleetSlices*fleetSlice
	// Report.Events counts the whole campaign. The events fired before
	// the checkpoint, read by finishing a resumed copy 1 ns after it, are
	// not the run's work.
	e, err := fleet.ResumeFile(path)
	if err != nil {
		return nil, err
	}
	before, err := e.Run(bg, e.Now()+1)
	if err != nil {
		return nil, err
	}
	rep := func(tr *tracer) (repResult, error) {
		var out repResult
		// Resuming is cheap next to the campaign, so the set-up is the
		// median of several.
		var e *fleet.Engine
		var err error
		var setups []float64
		spanned(tr, "resume", func() {
			for i := 0; i < fleetResumes && err == nil; i++ {
				t := time.Now()
				e, err = fleet.ResumeFile(path)
				setups = append(setups, time.Since(t).Seconds())
			}
		})
		if err != nil {
			return out, err
		}
		out.setupS = median(setups)

		cpu0 := cpuTime()
		t0 := time.Now()
		slices := 1 // the final one, inside Run
		var report *fleet.Report
		spanned(tr, "run", func() {
			for ; err == nil && e.Now()+fleetSlice < horizon; slices++ {
				err = e.Advance(bg, e.Now()+fleetSlice)
			}
			if err == nil {
				report, err = e.Run(bg, horizon)
			}
		})
		out.attempted = int64(e.Members())
		if err != nil {
			// A member error fails the campaign; every member counts.
			out.failed = out.attempted
			return out, nil
		}
		now := time.Now()
		out.wallS = now.Sub(t0).Seconds()
		out.events = report.Events - before.Events
		out.opsPerS = float64(out.events) / out.wallS
		out.digest = digest(*report)
		if tr != nil {
			tr.add("fleet.slice_s", out.wallS/float64(slices))
			tr.add("par.cpu_util", (cpuTime()-cpu0)/(out.wallS*float64(runtime.GOMAXPROCS(0))))
			tr.add("sim.events", float64(out.events))
			tr.add("scrub.bytes", float64(report.ScrubbedBytes))
			tr.add("wall_s", out.wallS)
			tr.set("fleet.members", float64(e.Members()))
			tr.set("fleet.checkpoint_kb", float64(st.Size())/1e3)
		}
		return out, nil
	}
	return rep, nil
}

// cpuTime is the process's user plus system CPU seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

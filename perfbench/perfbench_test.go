package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// TestMain lets the test binary stand in for the benchmark's generator
// and set-up child processes, which re-execute the running binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "gen" || os.Args[1] == "setup") {
		if err := child(os.Args[1], os.Args[2:]); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// bounds reads the end-to-end regression bounds from BENCHMARK.json.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// runSmall runs a workload at a tenth of its size and returns the
// measured metrics.
func runSmall(t *testing.T, workload string, traced bool, spin time.Duration) map[string]metric {
	t.Helper()
	opt := options{workload: workload, seed: 3, seconds: 2, traced: traced, dir: t.TempDir(), plantSpin: spin, scale: 0.1}
	w := findWorkload(workload)
	if _, err := spawnOut("gen", opt); err != nil {
		t.Fatal(err)
	}
	out, err := measure(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed", workload, out.failed, out.attempted)
	}
	return out.metrics
}

// plantSpin is long enough that the planted slowdown dwarfs host noise:
// the campaigns make one disk call every few microseconds.
const plantSpin = 2 * time.Microsecond

// TestPlantedDiskSlowdown plants a spin in the benchmark's disk wrapper.
// Both campaigns must get slower than wall_s's bound allows, the traced
// run must charge the spin to disk.service_s, and scrubd, which has no
// disk, must make no spin at all.
func TestPlantedDiskSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the campaigns; skipped with -short")
	}
	bound := bounds(t)["wall_s"]
	for _, wl := range []string{"campaign-busy", "campaign-idle"} {
		base := runSmall(t, wl, false, 0)["wall_s"].Value
		slow := runSmall(t, wl, false, plantSpin)["wall_s"].Value
		if slow/base-1 <= bound {
			t.Errorf("%s: planted slowdown moved wall_s %.3fs -> %.3fs, within the %.0f%% bound", wl, base, slow, 100*bound)
		}
		tb := runSmall(t, wl, true, 0)
		ts := runSmall(t, wl, true, plantSpin)
		want := tb["disk.service_calls"].Value * plantSpin.Seconds()
		got := ts["disk.service_s"].Value - tb["disk.service_s"].Value
		if got < 0.8*want {
			t.Errorf("%s: disk.service_s grew by %.3fs, want at least 80%% of the %.3fs planted", wl, got, want)
		}
		if ts["disk.service_calls"].Value != tb["disk.service_calls"].Value {
			t.Errorf("%s: the plant changed the simulation: %v vs %v disk calls", wl, ts["disk.service_calls"].Value, tb["disk.service_calls"].Value)
		}
	}

	spins.Store(0)
	runSmall(t, "scrubd", false, plantSpin)
	if n := spins.Load(); n != 0 {
		t.Errorf("scrubd ran %d planted spins; it has no disk layer", n)
	}
}

// TestProfileCharging checks the profile decoder on a real profile: a
// traced campaign must charge CPU to the simulator's modules, and its
// account of the traced wall time must leave a residual below a third
// of it.
func TestProfileCharging(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign; skipped with -short")
	}
	m := runSmall(t, "campaign-busy", true, 0)
	for _, mod := range []string{"disk", "sim", "iosched", "idlesim", "trace"} {
		if m[mod+".cpu_share"].Value <= 0 {
			t.Errorf("%s.cpu_share = 0", mod)
		}
	}
	wall, resid := m["attrib.wall_s"].Value, m["attrib.residual_s"].Value
	if wall <= 0 || resid > wall/3 || resid < -wall/3 {
		t.Errorf("residual %.3fs of traced wall %.3fs", resid, wall)
	}
}

// TestDigestCoversCounters checks that the output digest hashes a
// report's exact counters, not the rounded summary its String method
// prints: changing the event count or the scrubbed bytes alone must
// change the digest.
func TestDigestCoversCounters(t *testing.T) {
	cr := core.Report{Policy: "waiting", ScrubMBps: 12.5, ScrubbedBytes: 1 << 30, Events: 1000}
	fr := fleet.Report{Members: 3, ScrubMBps: 12.5, ScrubbedBytes: 1 << 30, Events: 1000}
	for _, c := range []struct {
		name     string
		base, on any
	}{
		{"core.Report.Events", cr, func() core.Report { r := cr; r.Events++; return r }()},
		{"core.Report.ScrubbedBytes", cr, func() core.Report { r := cr; r.ScrubbedBytes++; return r }()},
		{"fleet.Report.Events", fr, func() fleet.Report { r := fr; r.Events++; return r }()},
		{"fleet.Report.ScrubbedBytes", fr, func() fleet.Report { r := fr; r.ScrubbedBytes++; return r }()},
	} {
		if digest(c.base) == digest(c.on) {
			t.Errorf("%s: changing it left the digest unchanged", c.name)
		}
	}
	if fmt.Sprint(cr) != fmt.Sprint(func() core.Report { r := cr; r.Events++; return r }()) {
		t.Fatal("core.Report's summary now shows Events; the test no longer shows the String method is bypassed")
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile(v, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

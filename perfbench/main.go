// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed number of seconds and prints, as the
// last line of its standard output, a JSON object with the run's
// correctness, its operation counts and its metrics:
//
//	perfbench --workload campaign-busy --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation beyond the benchmark's own pass-through wrappers. With
// --trace 1 the run repeats the workload with per-layer timing wrappers
// and a CPU profile, and reports the per-layer metrics instead. README.md
// defines every metric and workload.
//
// The program builds its inputs from --seed in a child process before
// anything is timed, so the generator's CPU and memory stay out of the
// measurement. Inputs live under --dir, which the run removes at exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	dir      string
	// plantSpin is the planted-slowdown self-test: every disk Service call
	// made through the benchmark's device wrapper first spins this long.
	// Only the tests set it.
	plantSpin time.Duration
	// scale shrinks the workloads' inputs (1 = full size). Only the tests
	// set it; the generator and set-up children receive it as --scale.
	scale float64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "gen" || os.Args[1] == "setup") {
		if err := child(os.Args[1], os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench "+os.Args[1]+":", err)
			os.Exit(1)
		}
		return
	}
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 20, "measuring time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant")
	fs.StringVar(&opt.dir, "dir", filepath.Join(".bench_build", "work"), "scratch directory for generated inputs")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if findWorkload(opt.workload) == nil {
		return opt, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if opt.seconds <= 0 {
		return opt, fmt.Errorf("--seconds must be positive")
	}
	opt.traced = trace == 1
	opt.scale = 1
	return opt, nil
}

// run generates the inputs, measures the workload and assembles the
// result. Diagnostics and the host block go to standard output ahead of
// the result line; progress goes to standard error.
func run(opt options) (*result, error) {
	w := findWorkload(opt.workload)
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.dir, opt.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opt.dir = dir

	if p, ok := w.(procsPinner); ok {
		runtime.GOMAXPROCS(p.maxProcs())
	}
	host := hostInfo()
	printJSON(map[string]any{"host": host})

	if _, err := spawnOut("gen", opt); err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	out, err := measure(w, opt)
	if err != nil {
		return nil, err
	}
	printJSON(map[string]any{"workload": opt.workload, "seed": opt.seed, "digest": out.reps[0].digest, "work": out.reps[0].work,
		"rep_wall_s": field(out.reps, func(r repResult) float64 { return r.wallS })})
	if opt.traced {
		printLayerTable(opt.workload, out.layers)
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	return res, nil
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Println(string(b))
}

// child is the entry point of the generator and set-up processes.
func child(mode string, args []string) error {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	var opt options
	fs.StringVar(&opt.workload, "workload", "", "")
	fs.Int64Var(&opt.seed, "seed", 1, "")
	fs.StringVar(&opt.dir, "dir", "", "")
	fs.Float64Var(&opt.scale, "scale", 1, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := findWorkload(opt.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if mode == "gen" {
		return w.gen(opt)
	}
	cs, ok := w.(coldSetupper)
	if !ok {
		return fmt.Errorf("workload %q sets up inside each repetition", opt.workload)
	}
	secs, err := cs.coldSetup(opt)
	if err != nil {
		return err
	}
	fmt.Println(strconv.FormatFloat(secs, 'g', -1, 64))
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name())
	}
	sort.Strings(names)
	b, _ := json.Marshal(names)
	return string(b)
}

func findWorkload(name string) workload {
	for _, w := range workloads {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// Command perfbench is the repository benchmark. It runs one workload in
// process through the simulator's public packages, checks the simulated
// output against a digest, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (set-up time,
// throughput, memory); with -trace 1 the same process also runs a traced
// pass and reports the per-layer breakdown instead. See README.md for the
// workloads, the metrics and the steadiness evidence.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload stack-iocost --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// options are one invocation's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics and its output checks. A check is
// one attempted operation; a wrong or missing output fails it.
type report struct {
	result
	problems []string
	notes    []string
}

func newReport() *report { return &report{result: result{Metrics: map[string]metric{}}} }

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// note records a line printed with the results, outside the JSON.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one attempted operation, failing it unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"stack-iocost":  func(o options, r *report) error { return runStack(stackIOCost, o, r) },
	"stack-null":    func(o options, r *report) error { return runStack(stackNull, o, r) },
	"fleet-sampled": runFleet,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "host seconds the measured phase runs")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown -workload %q (have: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// run executes one workload and returns its report.
func run(o options) (*report, error) {
	r := newReport()
	if err := workloads[o.workload](o, r); err != nil {
		return nil, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := complete(r, defs, o.trace); err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	start := time.Now()
	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%t: %d checks, %d failed, %.1fs\n",
		o.workload, o.seed, o.trace, r.Attempted, r.Failed, time.Since(start).Seconds())
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

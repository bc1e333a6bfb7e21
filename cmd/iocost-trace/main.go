// iocost-trace is the telemetry toolchain for the simulator's blktrace
// equivalent: capture binary traces from deterministic scenarios, dump and
// analyze them (per-cgroup latency percentiles, throttle attribution,
// io.pressure reconstruction, queue-depth timelines), diff two traces
// event-by-event, and export a captured trace as a replayable workload
// trace.
//
// Usage:
//
//	iocost-trace capture -seed 7 -o run.trace        # fuzz scenario, all from one seed
//	iocost-trace capture -seed 7 -controller bfq -o bfq.trace
//	iocost-trace dump [-n 50] run.trace              # one line per event
//	iocost-trace analyze run.trace                   # latency/pressure report
//	iocost-trace diff a.trace b.trace                # first divergence + summary
//	iocost-trace export -o run.txt run.trace         # workload text format
//	iocost-trace export-perfetto -o run.json run.trace   # Perfetto/Chrome timeline
//	iocost-trace export-perfetto incident-000.json   # works on bundles too
//	iocost-trace bundle -check incident-000.json     # incident bundle inspect/validate
//
// Captures are deterministic: the same seed and controller always produce a
// byte-identical trace, so diff doubles as a regression check — and the
// Perfetto export is byte-identical too, so rendered timelines are
// reproducible artifacts.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/iocost-sim/iocost/internal/cli"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/flight"
	"github.com/iocost-sim/iocost/internal/simfuzz"
	"github.com/iocost-sim/iocost/internal/span"
	"github.com/iocost-sim/iocost/internal/trace"
	"github.com/iocost-sim/iocost/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "capture":
		capture(args)
	case "dump":
		dump(args)
	case "analyze":
		analyze(args)
	case "diff":
		diff(args)
	case "export":
		export(args)
	case "export-perfetto":
		exportPerfetto(args)
	case "bundle":
		bundle(args)
	case "version", "-version", "--version":
		cli.PrintVersion("iocost-trace")
	case "help", "-h", "-help", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "iocost-trace: unknown subcommand %q\n", cmd)
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: iocost-trace capture|dump|analyze|diff|export|export-perfetto|bundle [args]\n"+
		"  capture -seed N [-controller iocost] [-o file.trace]\n"+
		"  dump    [-n events] file.trace\n"+
		"  analyze file.trace\n"+
		"  diff    a.trace b.trace\n"+
		"  export  [-o file.txt] file.trace\n"+
		"  export-perfetto [-o file.json] [-faults plan] file.trace|bundle.json\n"+
		"  bundle  [-check] [-blame] bundle.json")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "iocost-trace: %v\n", err)
	os.Exit(1)
}

func capture(args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "simfuzz scenario seed")
	kind := fs.String("controller", "iocost", "controller to run the scenario under")
	out := fs.String("o", "", "output file (default seed<N>-<controller>.trace)")
	fs.Parse(args)
	if !ctl.Known(*kind) {
		fatal(fmt.Errorf("unknown controller %q (have: %s)", *kind, strings.Join(ctl.Names(), ", ")))
	}

	scn := simfuzz.Generate(*seed)
	res, tr := simfuzz.Capture(scn, *kind)
	path := *out
	if path == "" {
		path = fmt.Sprintf("seed%d-%s.trace", *seed, *kind)
	}
	if err := trace.WriteFile(path, tr); err != nil {
		fatal(err)
	}
	fmt.Printf("captured %d events (%d cgroups, %d dropped) from seed %d under %s -> %s\n",
		len(tr.Events), len(tr.CGroups), tr.Dropped, *seed, *kind, path)
	fmt.Printf("scenario: %d bios, %d groups, completions=%d makespan=%v\n",
		len(scn.Submits), len(scn.Groups), res.Completions, res.Makespan)
	for _, v := range res.Violations {
		fmt.Printf("violation during capture: %s\n", v)
	}
}

func load(path string) *trace.Trace {
	tr, err := trace.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	return tr
}

func dump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	n := fs.Int("n", 0, "dump at most this many events (0 = all)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	fmt.Print(trace.FormatEvents(load(fs.Arg(0)), *n))
}

func analyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	fmt.Print(trace.Analyze(load(fs.Arg(0))).Format())
}

func diff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	d := trace.Diff(load(fs.Arg(0)), load(fs.Arg(1)))
	fmt.Print(d.Report)
	if !d.Identical {
		os.Exit(1)
	}
}

// loadAny reads either a binary trace or an incident bundle (detected by a
// leading '{'), returning the trace and the fault plan to attribute with.
func loadAny(path string) (*trace.Trace, fault.Plan) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	if len(data) > 0 && data[0] == '{' {
		b, err := flight.DecodeBundle(data)
		if err != nil {
			fatal(err)
		}
		tr, err := b.Trace()
		if err != nil {
			fatal(err)
		}
		var plan fault.Plan
		if b.Plan != "" {
			if plan, err = fault.ParsePlan(b.Plan); err != nil {
				fatal(err)
			}
		}
		return tr, plan
	}
	tr, err := trace.Decode(data)
	if err != nil {
		fatal(err)
	}
	return tr, fault.Plan{}
}

func exportPerfetto(args []string) {
	fs := flag.NewFlagSet("export-perfetto", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	faults := fs.String("faults", "", "fault plan or preset for episode attribution (bundles carry their own)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	tr, plan := loadAny(fs.Arg(0))
	if *faults != "" {
		p, err := fault.ParsePlan(*faults)
		if err != nil {
			fatal(err)
		}
		plan = p
	}
	set := span.Build(tr, plan)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	if err := span.WritePerfetto(bw, set); err != nil {
		fatal(err)
	}
	if err := bw.Flush(); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Printf("exported %d spans (%d incomplete) -> %s (load in ui.perfetto.dev)\n",
			len(set.Spans), set.Incomplete, *out)
	}
}

func bundle(args []string) {
	fs := flag.NewFlagSet("bundle", flag.ExitOnError)
	check := fs.Bool("check", false, "validate the bundle schema and exit")
	blame := fs.Bool("blame", false, "print the span blame table")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	b, err := flight.ReadBundle(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *check {
		fmt.Printf("%s: valid v%d bundle (%s, %d events)\n", fs.Arg(0), b.Version, b.Reason, b.Events)
		return
	}
	fmt.Printf("incident: %s at %d ns (window %d ns)\n", b.Reason, b.AtNS, b.WindowNS)
	fmt.Printf("events: %d (%d dropped before window)\n", b.Events, b.DroppedBefore)
	if b.Plan != "" {
		fmt.Printf("faults: %s\n", b.Plan)
	}
	if len(b.Meta) > 0 {
		keys := make([]string, 0, len(b.Meta))
		for k := range b.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Print("meta:")
		for _, k := range keys {
			fmt.Printf(" %s=%s", k, b.Meta[k])
		}
		fmt.Println()
	}
	if len(b.Alerts) > 0 {
		fmt.Printf("alert transitions: %d\n", len(b.Alerts))
	}
	if b.Blame != nil && *blame {
		fmt.Print(b.Blame.Format())
	} else if b.Blame != nil {
		fmt.Printf("blame: %d spans, system p99 %dns (re-run with -blame for the table)\n",
			b.Blame.Spans, b.Blame.System.P99NS)
	}
}

func export(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	ops := trace.WorkloadOps(load(fs.Arg(0)))
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := workload.FormatTrace(w, ops); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Printf("exported %d ops -> %s\n", len(ops), *out)
	}
}

// Command iocost-monitor watches a simulated host through its metrics
// registry: the same two-workload contention scenario iocost-sim runs, but
// rendered as live per-interval tables (device, block layer, per-cgroup
// iocost state, io.pressure) driven entirely off the cross-layer registry,
// or exported whole as OpenMetrics text / versioned JSON time-series.
//
// Usage:
//
//	iocost-monitor [-device older-gen] [-controller iocost] [-seconds 10]
//	               [-interval 1] [-sample-ms 100] [-seed 1]
//	               [-hi-weight 200] [-lo-weight 100] [-depth 32] [-size 4096]
//	iocost-monitor -mode openmetrics [-o metrics.om] ...
//	iocost-monitor -mode json       [-o metrics.json] ...
//	iocost-monitor -check metrics.json
//
// Exports are deterministic: the same seed and configuration always produce
// byte-identical output, so exports double as regression fixtures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/iocost-sim/iocost"
	"github.com/iocost-sim/iocost/internal/cli"
	"github.com/iocost-sim/iocost/internal/registry"
)

const tool = "iocost-monitor"

func main() {
	cli.Setup(tool, "[-mode live|openmetrics|json] [options]")
	controller := flag.String("controller", iocost.ControllerIOCost,
		"IO controller: "+strings.Join(iocost.ControllerNames(), ", "))
	devName := flag.String("device", "older-gen", "device model: "+strings.Join(iocost.DeviceNames(), ", "))
	seconds := flag.Int("seconds", 10, "simulated seconds")
	interval := flag.Int("interval", 1, "display interval in simulated seconds (live mode)")
	sampleMS := flag.Int("sample-ms", 100, "registry scrape interval in simulated milliseconds")
	hiWeight := flag.Float64("hi-weight", 200, "high-priority cgroup weight")
	loWeight := flag.Float64("lo-weight", 100, "low-priority cgroup weight")
	depth := flag.Int("depth", 32, "per-workload queue depth")
	size := flag.Int64("size", 4096, "IO size in bytes")
	seq := flag.Bool("seq", false, "sequential instead of random access")
	seed := flag.Uint64("seed", 1, "simulation seed")
	mode := flag.String("mode", "live", "output: live tables, openmetrics text, or json time-series")
	out := flag.String("o", "", "write export to this file instead of stdout")
	checkFile := flag.String("check", "", "validate a JSON export file and exit")
	faults := flag.String("faults", "", "inject device faults: a preset (storm, flaky, hang, gcstorm, capcollapse) or kind:at=2s,dur=3s,rate=0.01;... episodes")
	alerts := flag.Bool("alerts", false, "evaluate SLO burn-rate rules against the registry and print alert state each interval (live mode)")
	cli.Parse(tool)

	if *checkFile != "" {
		check(*checkFile)
		return
	}
	if err := cli.Positive(flag.CommandLine, "seconds", "hi-weight", "lo-weight", "depth", "size"); err != nil {
		cli.Fatalf(tool, "%v", err)
	}

	dev, err := iocost.ParseDevice(*devName)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}

	var plan iocost.FaultPlan
	if *faults != "" {
		var err error
		plan, err = iocost.ParseFaultPlan(*faults)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
	}

	m, err := iocost.NewMachine(iocost.MachineConfig{
		Device:          dev,
		Controller:      *controller,
		Seed:            *seed,
		Pressure:        true,
		Metrics:         true,
		MetricsInterval: iocost.Time(*sampleMS) * iocost.Millisecond,
		Faults:          plan,
	})
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	hi := m.Workload.NewChild("hi", *hiWeight)
	lo := m.Workload.NewChild("lo", *loWeight)

	pattern := iocost.RandomAccess
	if *seq {
		pattern = iocost.SequentialAccess
	}
	mk := func(cg *iocost.CGroup, region int64, s uint64) {
		iocost.NewSaturator(m.Q, iocost.SaturatorConfig{
			CG: cg, Op: iocost.Read, Pattern: pattern,
			Size: *size, Depth: *depth, Region: region, Seed: s,
		}).Start()
	}
	mk(hi, 0, *seed+1)
	mk(lo, 1<<40, *seed+2)

	var ev *iocost.SLOEvaluator
	if *alerts {
		ev, err = iocost.NewSLOEvaluator(m.Eng, iocost.SLORegistrySource{Reg: m.Registry},
			iocost.DefaultSLORules(), 0)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		ev.Start()
	}

	switch *mode {
	case "live":
		live(m, ev, *seconds, *interval)
	case "openmetrics", "json":
		m.Run(iocost.Time(*seconds) * iocost.Second)
		w, closer := output(*out)
		var err error
		if *mode == "json" {
			err = m.Sampler.WriteJSON(w)
		} else {
			err = m.Sampler.WriteOpenMetrics(w)
		}
		if err == nil {
			err = closer()
		}
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
	default:
		cli.Fatalf(tool, "unknown mode %q", *mode)
	}
}

// output opens the export destination; the closer is a no-op for stdout.
func output(path string) (io.Writer, func() error) {
	if path == "" {
		return os.Stdout, func() error { return nil }
	}
	f, err := os.Create(path)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	return f, f.Close
}

// check validates a JSON export against the schema and time-series
// invariants, exiting non-zero on failure.
func check(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		cli.Fatalf(tool, "%v", err)
	}
	var exp iocost.MetricsExport
	if err := json.Unmarshal(data, &exp); err != nil {
		cli.Fatalf(tool, "%s: %v", path, err)
	}
	if err := iocost.ValidateMetricsExport(&exp); err != nil {
		cli.Fatalf(tool, "%s: %v", path, err)
	}
	fmt.Printf("%s: ok (%d metrics, %d scrapes)\n", path, len(exp.Metrics), exp.Samples)
}

// live renders registry-driven tables every display interval; with -alerts
// the SLO burn-rate state rides along under each table.
func live(m *iocost.Machine, ev *iocost.SLOEvaluator, seconds, interval int) {
	if interval < 1 {
		interval = 1
	}
	prev := map[string]float64{}
	for t := interval; t <= seconds; t += interval {
		m.Run(iocost.Time(t) * iocost.Second)
		fams := m.Registry.Gather()
		fmt.Printf("=== t=%ds ===\n", t)
		deviceTable(fams, prev, float64(interval))
		blkLine(fams, prev, float64(interval))
		if m.IOCost != nil {
			fmt.Print(m.IOCost.FormatSnapshot())
		}
		fmt.Print(m.Q.FormatIOStat())
		fmt.Print(m.Pressure.Format())
		if ev != nil {
			fmt.Print(ev.Format())
		}
		for _, f := range fams {
			for _, s := range f.Samples {
				prev[s.Name+s.Labels] = s.Value
			}
		}
	}
	if ev != nil {
		fmt.Printf("slo: %d alert transitions\n", ev.Transitions())
	}
}

// find returns the samples of family name (nil if absent).
func find(fams []registry.FamilySamples, name string) []registry.Sample {
	for _, f := range fams {
		if f.Name == name {
			return f.Samples
		}
	}
	return nil
}

// one returns the single value of family name filtered by an optional
// rendered-label substring.
func one(fams []registry.FamilySamples, name, labelSub string) float64 {
	for _, s := range find(fams, name) {
		if labelSub == "" || strings.Contains(s.Labels, labelSub) {
			return s.Value
		}
	}
	return 0
}

// rate computes a counter's per-second rate over the display interval.
func rate(prev map[string]float64, name, labels string, now, dt float64) float64 {
	return (now - prev[name+labels]) / dt
}

func deviceTable(fams []registry.FamilySamples, prev map[string]float64, dt float64) {
	ios := find(fams, "device_ios_total")
	if len(ios) == 0 {
		return
	}
	dev := ios[0].LabelPairs[0].Value
	rIOPS := rate(prev, "device_ios_total", ios[0].Labels, ios[0].Value, dt)
	wIOPS := rate(prev, "device_ios_total", ios[1].Labels, ios[1].Value, dt)
	bytes := find(fams, "device_bytes_total")
	rMBps := rate(prev, "device_bytes_total", bytes[0].Labels, bytes[0].Value, dt) / 1e6
	wMBps := rate(prev, "device_bytes_total", bytes[1].Labels, bytes[1].Value, dt) / 1e6
	fmt.Printf("%-14s %6s %6s %6s %9s %9s %9s %9s %7s\n",
		"device", "inflt", "busy", "queued", "r_iops", "w_iops", "r_MBps", "w_MBps", "gc")
	fmt.Printf("%-14s %6.0f %6.0f %6.0f %9.0f %9.0f %9.1f %9.1f %7.0f\n",
		dev,
		one(fams, "device_inflight", ""),
		one(fams, "device_busy", ""),
		one(fams, "device_queued", ""),
		rIOPS, wIOPS, rMBps, wMBps,
		one(fams, "device_gc_stalls_total", ""))
}

func blkLine(fams []registry.FamilySamples, prev map[string]float64, dt float64) {
	comp := find(fams, "blk_completions_total")
	if len(comp) == 0 {
		return
	}
	fmt.Printf("blk: inflight=%.0f ctl_queued=%.0f completions/s=%.0f depletion_hits=%.0f",
		one(fams, "blk_inflight", ""),
		one(fams, "blk_ctl_queued", ""),
		rate(prev, "blk_completions_total", comp[0].Labels, comp[0].Value, dt),
		one(fams, "blk_depletion_hits_total", ""))
	// Failure counters appear only when something failed, keeping the
	// healthy-path table unchanged.
	if errs, touts, retr := one(fams, "blk_errors_total", ""), one(fams, "blk_timeouts_total", ""),
		one(fams, "blk_retries_total", ""); errs > 0 || touts > 0 || retr > 0 {
		fmt.Printf(" errors=%.0f timeouts=%.0f retries=%.0f", errs, touts, retr)
	}
	fmt.Println()
}

// Command iocost-sim runs a configurable two-workload contention scenario:
// a high-priority and a low-priority workload share a device under a chosen
// IO controller, and the tool prints per-second IOPS, latency percentiles,
// and (for iocost) vrate so control behaviour can be watched live.
//
// Usage:
//
//	iocost-sim [-controller iocost] [-device older-gen] [-seconds 10]
//	           [-hi-weight 200] [-lo-weight 100] [-depth 32] [-size 4096]
//	           [-replay trace.txt] [-trace run.trace] [-pressure]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/iocost-sim/iocost"
	"github.com/iocost-sim/iocost/internal/cli"
)

const tool = "iocost-sim"

func main() {
	cli.Setup(tool, "[options]")
	controller := flag.String("controller", iocost.ControllerIOCost,
		"IO controller: "+strings.Join(iocost.ControllerNames(), ", "))
	devName := flag.String("device", "older-gen", "device model: "+strings.Join(iocost.DeviceNames(), ", "))
	seconds := flag.Int("seconds", 10, "simulated seconds")
	hiWeight := flag.Float64("hi-weight", 200, "high-priority cgroup weight")
	loWeight := flag.Float64("lo-weight", 100, "low-priority cgroup weight")
	depth := flag.Int("depth", 32, "per-workload queue depth")
	size := flag.Int64("size", 4096, "IO size in bytes")
	seq := flag.Bool("seq", false, "sequential instead of random access")
	seed := flag.Uint64("seed", 1, "simulation seed")
	monitor := flag.Bool("monitor", false, "print per-cgroup iocost state each second (iocost only)")
	replayFile := flag.String("replay", "", "replay this IO trace in the high-priority cgroup instead of a saturator (format: time-us r|w offset size [cgroup])")
	traceOut := flag.String("trace", "", "record a binary telemetry trace of the run to this file (inspect with iocost-trace)")
	pressure := flag.Bool("pressure", false, "print per-cgroup io.pressure at the end of the run")
	metricsOut := flag.String("metrics", "", "export sampled metrics of the run to this file (OpenMetrics text, or JSON with a .json suffix)")
	faults := flag.String("faults", "", "inject device faults: a preset (storm, flaky, hang, gcstorm, capcollapse) or kind:at=2s,dur=3s,rate=0.01;... episodes")
	flightDir := flag.String("flight", "", "arm the flight recorder and write incident bundles to this directory (inspect with iocost-trace bundle)")
	cli.Parse(tool)
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

	var fc *iocost.FlightConfig
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		fc = &iocost.FlightConfig{
			Dir:          *flightDir,
			Rules:        iocost.DefaultSLORules(),
			VrateFloor:   0.25,
			PressureCeil: 0.9,
			// A short cooldown so a burst fault episode yields both an
			// onset bundle and an in-episode bundle before it ends.
			Cooldown: 2 * iocost.Second,
		}
	}

	m, err := iocost.NewMachine(iocost.MachineConfig{
		Device:     dev,
		Controller: *controller,
		Seed:       *seed,
		Trace:      *traceOut != "",
		Pressure:   *pressure,
		Metrics:    *metricsOut != "",
		Faults:     plan,
		Flight:     fc,
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
	mk := func(cg *iocost.CGroup, region int64, s uint64) *iocost.Saturator {
		w := iocost.NewSaturator(m.Q, iocost.SaturatorConfig{
			CG: cg, Op: iocost.Read, Pattern: pattern,
			Size: *size, Depth: *depth, Region: region, Seed: s,
		})
		w.Start()
		return w
	}

	var hiStats *iocost.Saturator
	var hiTrace *iocost.TraceReplayer
	if *replayFile != "" {
		f, err := os.Open(*replayFile)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		ops, err := iocost.ParseTrace(f)
		f.Close()
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		hiTrace = iocost.NewTraceReplayer(m.Q, hi, ops)
		hiTrace.Start()
	} else {
		hiStats = mk(hi, 0, *seed+1)
	}
	wLo := mk(lo, 1<<40, *seed+2)

	fmt.Printf("%4s %12s %12s %8s %12s %12s %8s\n",
		"t", "hi IOPS", "lo IOPS", "ratio", "hi p50", "lo p99", "vrate")
	for t := 1; t <= *seconds; t++ {
		m.Run(iocost.Time(t) * iocost.Second)
		var nHi uint64
		var hiP50 iocost.Time
		if hiTrace != nil {
			nHi = hiTrace.Stats.TakeWindow()
			hiP50 = iocost.Time(hiTrace.Stats.Latency.Quantile(0.5))
		} else {
			nHi = hiStats.Stats.TakeWindow()
			hiP50 = iocost.Time(hiStats.Stats.Latency.Quantile(0.5))
		}
		nLo := wLo.Stats.TakeWindow()
		ratio := 0.0
		if nLo > 0 {
			ratio = float64(nHi) / float64(nLo)
		}
		vrate := "-"
		if m.IOCost != nil {
			vrate = fmt.Sprintf("%.0f%%", m.IOCost.Vrate()*100)
		}
		fmt.Printf("%3ds %12d %12d %8.2f %12v %12v %8s\n",
			t, nHi, nLo, ratio,
			hiP50,
			iocost.Time(wLo.Stats.Latency.Quantile(0.99)),
			vrate)
		if *monitor && m.IOCost != nil {
			fmt.Print(m.IOCost.FormatSnapshot())
		}
	}
	if m.Fault != nil {
		fmt.Printf("faults: injected errors=%d stalls=%d gc-hits=%d capped=%d slowed=%d delay=%v\n",
			m.Fault.Errors(), m.Fault.Stalls(), m.Fault.GCHits(), m.Fault.Capped(),
			m.Fault.Slowed(), m.Fault.DelayedTime())
		fmt.Printf("blk:    errors=%d timeouts=%d retries=%d failures=%d late-completions=%d\n",
			m.Q.Errors(), m.Q.Timeouts(), m.Q.Retries(), m.Q.Failures(), m.Q.LateCompletions())
	}
	if *pressure {
		fmt.Print(m.Pressure.Format())
	}
	if m.Flight != nil {
		inc := m.Flight.Incidents()
		fmt.Printf("flight: %d incidents (%d trigger checks) -> %s\n",
			len(inc), m.Flight.Checks, *flightDir)
		for i, b := range inc {
			fmt.Printf("  incident %03d: %s at %v (%d events", i, b.Reason,
				iocost.Time(b.AtNS), b.Events)
			if b.Blame != nil {
				fmt.Printf(", p99 %v, fault-blame %.0f%%",
					iocost.Time(b.Blame.System.P99NS), 100*b.Blame.System.FaultFrac)
			}
			fmt.Println(")")
		}
	}
	if *traceOut != "" {
		tr := m.Trace.Trace()
		if err := iocost.WriteTrace(*traceOut, tr); err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		fmt.Printf("trace: %d events (%d dropped) -> %s\n",
			len(tr.Events), tr.Dropped, *traceOut)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		if strings.HasSuffix(*metricsOut, ".json") {
			err = m.Sampler.WriteJSON(f)
		} else {
			err = m.Sampler.WriteOpenMetrics(f)
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			cli.Fatalf(tool, "%v", err)
		}
		fmt.Printf("metrics: %d families, %d scrapes -> %s\n",
			m.Registry.Len(), m.Sampler.Samples(), *metricsOut)
	}
}

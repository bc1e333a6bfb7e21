package exp

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
)

// hostFactory builds a fleet.Host running the given mechanism on the
// older-generation SSD (the fleet's most contended device class).
func hostFactory(kind string) fleet.HostFactory {
	return func(eng *sim.Engine, seed uint64) fleet.Host {
		spec := device.OlderGenSSD()
		dev := device.NewSSD(eng, spec, seed)
		var c blk.Controller
		if kind == KindIOCost {
			c = newIOCostController(spec)
		} else {
			var err error
			if c, err = ctl.New(kind, ctl.Config{}); err != nil {
				panic("fleet: " + err.Error())
			}
		}
		q := blk.New(eng, dev, c, 0)

		hier := cgroup.NewHierarchy()
		h := fleet.Host{
			Q:            q,
			System:       hier.Root().NewChild("system", 50),
			HostCritical: hier.Root().NewChild("hostcritical", 100),
			Workload:     hier.Root().NewChild("workload", 850),
		}
		if iol, ok := c.(*ctl.IOLatency); ok {
			// Production io.latency deployments protect the workload
			// tier; system services run without targets (lowest
			// priority), which is exactly how they starve.
			iol.SetTarget(h.Workload, 10*sim.Millisecond)
		}
		return h
	}
}

// FleetResult is one migration sweep (Figure 18 or 19).
type FleetResult struct {
	Kind      fleet.OpKind
	OldCurve  fleet.Curve
	NewCurve  fleet.Curve
	Weekly    *stats.Series
	Reduction float64 // first-week failures / last-week failures
}

// FigFleetOptions tunes both fleet experiments.
type FigFleetOptions struct {
	// Trials per (controller, pressure) micro-simulation point; 0
	// selects 5.
	Trials int
	// Hosts in the Monte-Carlo region; 0 selects 2000.
	Hosts int
}

// runFleet builds the IOLatency and IOCost failure curves for the given
// operation and sweeps the region migration.
func runFleet(kind fleet.OpKind, opts FigFleetOptions) FleetResult {
	trials := opts.Trials
	if trials == 0 {
		trials = 5
	}
	old, new_ := MeasuredFleetCurves(kind, trials)
	weekly := fleet.MigrationSweep(old, new_, fleet.MigrationConfig{
		Hosts: opts.Hosts, Seed: 0x181,
	})
	first, last := weekly.Y[0], weekly.Y[len(weekly.Y)-1]
	red := 0.0
	if last > 0 {
		red = first / last
	} else if first > 0 {
		red = first // fully eliminated; report first-week count as the factor floor
	}
	return FleetResult{Kind: kind, OldCurve: old, NewCurve: new_, Weekly: weekly, Reduction: red}
}

// Fig18 reproduces the package-fetch failure-reduction sweep.
func Fig18(opts FigFleetOptions) FleetResult { return runFleet(fleet.PackageFetch, opts) }

// Fig19 reproduces the container-cleanup failure-reduction sweep.
func Fig19(opts FigFleetOptions) FleetResult { return runFleet(fleet.ContainerCleanup, opts) }

// FormatFleet renders a migration sweep.
func FormatFleet(r FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s migration (iolatency -> iocost)\n", r.Kind)
	fmt.Fprintf(&b, "  fail-prob curve old: %v\n", curveString(r.OldCurve))
	fmt.Fprintf(&b, "  fail-prob curve new: %v\n", curveString(r.NewCurve))
	fmt.Fprintf(&b, "  weekly failures:")
	for i := range r.Weekly.X {
		fmt.Fprintf(&b, " w%d=%.0f", int(r.Weekly.X[i]), r.Weekly.Y[i])
	}
	fmt.Fprintf(&b, "\n  reduction: %.1fx\n", r.Reduction)
	return b.String()
}

func curveString(c fleet.Curve) string {
	var b strings.Builder
	for i := range c.Pressures {
		fmt.Fprintf(&b, "p=%.2f:%.2f ", c.Pressures[i], c.FailProb[i])
	}
	return strings.TrimSpace(b.String())
}

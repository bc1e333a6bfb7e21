package exp

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
)

// fleetCell runs one Figs 18/19 micro-simulation, fleet.RunOp of kind at
// pressure and seed, on fleetMachine(m, ctlKind, seed).
func fleetCell(m **Machine, ctlKind string, kind fleet.OpKind, pressure float64, seed uint64) (sim.Time, bool) {
	h := fleetMachine(m, ctlKind, seed)
	return fleet.RunOp(fleet.Host{Q: h.Q, System: h.System, HostCritical: h.HostCritical, Workload: h.Workload},
		kind, pressure, seed)
}

// fleetMachine builds the host of a Figs 18/19 cell at seed: the ctlKind
// mechanism on the older-generation SSD (the fleet's most contended device
// class). It resets *m in place, or stores a new machine in *m when it is
// nil, and returns *m.
func fleetMachine(m **Machine, ctlKind string, seed uint64) *Machine {
	// The machine seeds its device with Seed^deviceSeedTag: the cell's
	// own seed.
	cfg := MachineConfig{
		Device:     ssdChoice(device.OlderGenSSD()),
		Controller: ctlKind,
		Seed:       rng.DeriveSeed(seed, deviceSeedTag),
	}
	if *m == nil {
		*m = MustNewMachine(cfg)
	} else if err := (*m).Reset(cfg); err != nil {
		panic(err)
	}
	if iol, ok := (*m).Ctl.(*ctl.IOLatency); ok {
		// Production io.latency deployments protect the workload tier;
		// system services run without targets (lowest priority), which
		// is exactly how they starve.
		iol.SetTarget((*m).Workload, 10*sim.Millisecond)
	}
	return *m
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
	return sweepFleet(old, new_, opts.Hosts)
}

// sweepFleet sweeps a region of hosts migrating from the old curve to the
// new one.
func sweepFleet(old, new_ fleet.Curve, hosts int) FleetResult {
	weekly := fleet.MigrationSweep(old, new_, fleet.MigrationConfig{
		Hosts: hosts, Seed: 0x181,
	})
	first, last := weekly.Y[0], weekly.Y[len(weekly.Y)-1]
	red := 0.0
	if last > 0 {
		red = first / last
	} else if first > 0 {
		red = first // fully eliminated; report first-week count as the factor floor
	}
	return FleetResult{Kind: old.Kind, OldCurve: old, NewCurve: new_, Weekly: weekly, Reduction: red}
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

package exp

import (
	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/sim"
)

// FleetScaleOptions parameterizes the datacenter-scale fleet experiment:
// the Figs 18/19 migration replayed over a sharded cluster with the
// behaviors the paper only gestures at — a rolling canary config push and
// a rack-correlated fault storm — layered on top.
type FleetScaleOptions struct {
	// Hosts in the cluster; 0 selects 10000 (1000 with Short).
	Hosts int
	// Workers is the shard fan-out width; 0 follows the experiment
	// parallelism toggle (GOMAXPROCS when -parallel, serial otherwise).
	// Summaries are byte-identical for every value.
	Workers int
	// Ticks in the migration window; 0 selects 8.
	Ticks int
	Seed  uint64
	// Measure derives the failure curves from live per-host
	// micro-simulations (MeasureCurve, expensive) instead of the canned
	// fleet.DefaultCurves.
	Measure bool
	// Trials per micro-simulation point when Measure is set; 0 selects 3.
	Trials int
	// Push adds a rolling QoS push: a 5% canary one quarter into the run,
	// ramping fleet-wide over the next quarter.
	Push bool
	// Storm adds a correlated fault storm — a 10x slowdown plus transient
	// errors sharing one fault plan across the first two racks — covering
	// the middle quarter of the run.
	Storm bool
	Short bool
	// Fidelity selects the per-host model (outcome curves, a sampled
	// subset of full machines, or full machines everywhere); the zero
	// value keeps the outcome model. Passed through to
	// fleet.ClusterConfig.Fidelity — wire scenario.NewFleetHost (or the
	// facade's NewFleetHost) as the machine factory; exp cannot import
	// scenario itself.
	Fidelity fleet.Fidelity
}

// FleetScale runs the cluster-scale migration sweep and returns its merged
// summary. The run shards hosts across workers with per-host seed-derived
// streams and streaming aggregation: memory stays bounded and the summary
// is byte-identical at every worker count (see internal/fleet).
func FleetScale(kind fleet.OpKind, opts FleetScaleOptions) (*fleet.Summary, error) {
	hosts := opts.Hosts
	if hosts == 0 {
		hosts = 10000
		if opts.Short {
			hosts = 1000
		}
	}
	ticks := opts.Ticks
	if ticks == 0 {
		ticks = 8
	}
	workers := opts.Workers
	if workers == 0 && ParallelEnabled() {
		workers = fanout.DefaultWorkers()
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0x18f1ee7
	}

	cfg := fleet.ClusterConfig{
		Hosts:     hosts,
		Ticks:     ticks,
		TickDur:   3600 * sim.Second,
		Seed:      seed,
		Workers:   workers,
		Kind:      kind,
		Migration: &fleet.MigrationWave{StartTick: 0, Ticks: ticks},
		Fidelity:  opts.Fidelity,
	}
	if opts.Measure {
		cfg.Old, cfg.New = MeasuredFleetCurves(kind, opts.Trials)
	}
	if opts.Push {
		cfg.Push = &fleet.ConfigPush{
			StartTick:  ticks / 4,
			CanaryFrac: 0.05,
			RampTicks:  max(ticks/4, 1),
			FailFactor: 0.85,
			LatFactor:  0.95,
		}
	}
	if opts.Storm {
		at := sim.Time(ticks/2) * cfg.TickDur
		dur := sim.Time(max(ticks/4, 1)) * cfg.TickDur
		cfg.Storms = []fleet.FaultStorm{{
			Racks: []int{0, 1},
			Plan: fault.Plan{Episodes: []fault.Episode{
				{Kind: fault.Slow, At: at, Dur: dur, Factor: 10},
				{Kind: fault.Error, At: at, Dur: dur, Rate: 0.01},
			}},
		}}
	}
	return fleet.RunCluster(cfg)
}

// curvePressures are the main-workload pressures the measured failure
// curves sample.
var curvePressures = []float64{0.3, 0.6, 0.8, 0.88, 0.95, 1.02, 1.1}

// MeasuredFleetCurves derives the old- and new-controller failure curves
// from live per-host micro-simulations (the Figs 18/19 methodology), for
// callers that want measured rather than canned cluster inputs. Trials <= 0
// selects 3 per pressure point.
func MeasuredFleetCurves(kind fleet.OpKind, trials int) (old, new_ fleet.Curve) {
	if trials <= 0 {
		trials = 3
	}
	// The two controller curves are independent micro-simulation sweeps.
	curveKinds := []string{KindIOLatency, KindIOCost}
	curves := ForEach(2, func(i int) fleet.Curve {
		return fleet.MeasureCurve(hostFactory(curveKinds[i]), kind, curvePressures, trials, 0x18+uint64(i))
	})
	return curves[0], curves[1]
}

// FormatFleetScale renders the cluster summary.
func FormatFleetScale(s *fleet.Summary) string { return s.Format() }

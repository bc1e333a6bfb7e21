package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/scenario"
	"github.com/iocost-sim/iocost/internal/sim"
)

// The fleet-sampled cluster: the Figs 18/19 migration wave over a
// package-fetch fleet, a seed-drawn 0.02 % of hosts on full machines and
// the rest on the outcome model, on one worker.
const (
	fleetHosts      = 200_000
	fleetTicks      = 8
	fleetSampleFrac = 0.0002
)

// fleetPins maps a seed to the digest of its Summary.Format().
var fleetPins = map[uint64]string{
	defaultSeed: "670fb9a04b416019",
	heldOutSeed: "93d3e682f2272b1f",
}

func fleetConfig(seed uint64, old, new_ fleet.Curve, machine fleet.MachineFactory) fleet.ClusterConfig {
	return fleet.ClusterConfig{
		Hosts:     fleetHosts,
		Ticks:     fleetTicks,
		TickDur:   3600 * sim.Second,
		Seed:      seed,
		Workers:   1,
		Kind:      fleet.PackageFetch,
		Old:       old,
		New:       new_,
		Migration: &fleet.MigrationWave{StartTick: 0, Ticks: fleetTicks},
		Fidelity: fleet.Fidelity{
			Mode:       fleet.FidelitySampled,
			SampleFrac: fleetSampleFrac,
			Machine:    machine,
		},
	}
}

// fleetSane checks what must hold for every seed.
func fleetSane(s *fleet.Summary) error {
	switch {
	case s.Hosts != fleetHosts || len(s.PerTick) != fleetTicks:
		return fmt.Errorf("summary covers %d hosts over %d ticks", s.Hosts, len(s.PerTick))
	case s.Calib == nil || s.Calib.FullHosts == 0:
		return fmt.Errorf("no full-machine hosts ran")
	case s.Latency.Count() == 0:
		return fmt.Errorf("no operation latencies recorded")
	}
	for t, ts := range s.PerTick {
		if ts.Ops == 0 || ts.Fails > ts.Ops {
			return fmt.Errorf("tick %d: %d fails of %d ops", t, ts.Fails, ts.Ops)
		}
	}
	return nil
}

// round is one RunCluster call's outcome.
type round struct {
	digest string
	// rate is host-ticks per nominal host second (see calib.go); rawRate
	// per wall second.
	rate, rawRate float64
	slowdown      float64
	// kernel is the calibration kernel's time inside the round.
	kernel time.Duration
}

// calibratedHost runs the calibration kernel after every tick of a
// full-machine host: ~300 runs spread over a round, on the round's
// goroutine, outside the host's own work (and outside its Tick span in a
// traced round).
type calibratedHost struct {
	fleet.HostModel
	cal *calibration
}

func (h *calibratedHost) Tick(env fleet.HostTickEnv, acc *fleet.Summary) fleet.HostTickResult {
	res := h.HostModel.Tick(env, acc)
	h.cal.sample()
	return res
}

// fleetRounds runs the cluster until seconds of host time have passed (at
// least once), checking every round's output against the first's. The
// first round's digest is also checked against the pin when the seed has
// one.
func fleetRounds(o options, old, new_ fleet.Curve, machine fleet.MachineFactory, r *report, tr *tracer) (rounds []round, prefixAlloc uint64, err error) {
	var cal calibration
	cfg := fleetConfig(o.seed, old, new_, func(spec fleet.HostSpec) fleet.HostModel {
		return &calibratedHost{HostModel: machine(spec), cal: &cal}
	})
	start := time.Now()
	limit := time.Duration(o.seconds * float64(time.Second))
	for time.Since(start) < limit || len(rounds) == 0 {
		cal = calibration{}
		t0 := time.Now()
		if tr != nil {
			tr.begin(layerCluster)
		}
		s, err := fleet.RunCluster(cfg)
		if tr != nil {
			tr.end()
		}
		if err != nil {
			return nil, 0, err
		}
		wall := time.Since(t0)
		err = fleetSane(s)
		r.check(err == nil, "round %d: %v", len(rounds)+1, err)
		if cal.n == 0 {
			return nil, 0, fmt.Errorf("round %d ran no full-machine host to calibrate on", len(rounds)+1)
		}
		units := float64(fleetHosts * fleetTicks)
		rd := round{
			digest:   digest(s.Format()),
			rate:     units / cal.normSeconds(wall),
			rawRate:  units / (wall - cal.total).Seconds(),
			slowdown: cal.slowdown(),
			kernel:   cal.total,
		}
		if len(rounds) == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			prefixAlloc = ms.TotalAlloc
			if pin, ok := fleetPins[o.seed]; ok {
				r.check(rd.digest == pin, "seed %d: digest %s, pinned %s", o.seed, rd.digest, pin)
			}
		} else {
			r.check(rd.digest == rounds[0].digest, "round %d: digest %s, first round %s",
				len(rounds)+1, rd.digest, rounds[0].digest)
		}
		rounds = append(rounds, rd)
	}
	return rounds, prefixAlloc, nil
}

func roundRates(rounds []round) (rates, raw []float64, slowdown float64) {
	for _, rd := range rounds {
		rates = append(rates, rd.rate)
		raw = append(raw, rd.rawRate)
		slowdown += rd.slowdown / float64(len(rounds))
	}
	return rates, raw, slowdown
}

// runFleet runs fleet-sampled: set-up measures the controllers' failure
// curves with live micro-simulations, the measured phase runs the cluster
// on them. The set-up offers no point to interleave the calibration
// kernel at, and kernel runs before and after it tracked the host worse
// than none (README.md), so setup_s is wall-clock time.
func runFleet(o options, r *report) error {
	t0 := time.Now()
	old, new_ := exp.MeasuredFleetCurves(fleet.PackageFetch, 1)
	setup := time.Since(t0).Seconds()

	var prof *cpuProfile
	var ms0, ms1 runtime.MemStats
	var err error
	if o.trace {
		runtime.ReadMemStats(&ms0)
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	rounds, prefixAlloc, err := fleetRounds(o, old, new_, scenario.NewFleetHost, r, nil)
	if err != nil {
		return err
	}
	var flat map[string]int64
	var samples int64
	if o.trace {
		runtime.ReadMemStats(&ms1)
		if flat, samples, err = prof.stop(); err != nil {
			return err
		}
	}
	rates, raw, slowdown := roundRates(rounds)
	r.note("raw units_per_s %.6g (wall clock), host slowdown %.4f", median(raw), slowdown)
	if !o.trace {
		if err := setEndToEnd(r, setup, median(rates), prefixAlloc); err != nil {
			return err
		}
		return checkFleetDefaultPin(o.seed, old, new_, r)
	}
	if err := checkFleetDefaultPin(o.seed, old, new_, r); err != nil {
		return err
	}
	setRuntimeMetrics(r, ms0, ms1, uint64(len(rounds)*fleetHosts*fleetTicks))
	setCPUShares(r, flat, samples)
	r.set("calib.host_slowdown", slowdown, "x")
	return traceFleet(o, r, old, new_, rounds[0].digest, median(rates))
}

// checkFleetDefaultPin makes a run of a seed without a pin check the
// default seed's, so that a changed output fails a run of any seed. It
// runs after the end-to-end figures are taken.
func checkFleetDefaultPin(seed uint64, old, new_ fleet.Curve, r *report) error {
	if _, ok := fleetPins[seed]; ok {
		return nil
	}
	s, err := fleet.RunCluster(fleetConfig(defaultSeed, old, new_, scenario.NewFleetHost))
	if err != nil {
		return err
	}
	got, pin := digest(s.Format()), fleetPins[defaultSeed]
	r.check(got == pin, "seed %d: digest %s, pinned %s", defaultSeed, got, pin)
	return nil
}

// timedHost times each HostModel.Tick of a full-machine host.
type timedHost struct {
	fleet.HostModel
	tr *tracer
}

func (h *timedHost) Tick(env fleet.HostTickEnv, acc *fleet.Summary) fleet.HostTickResult {
	h.tr.begin(layerMachineTick)
	res := h.HostModel.Tick(env, acc)
	h.tr.end()
	return res
}

// traceFleet reruns the cluster with every full-machine tick timed and
// reports the split between machine and outcome hosts.
func traceFleet(o options, r *report, old, new_ fleet.Curve, want string, untracedRate float64) error {
	tr := newTracer()
	tr.keepDurations(layerMachineTick)
	rounds, _, err := fleetRounds(o, old, new_, func(spec fleet.HostSpec) fleet.HostModel {
		return &timedHost{HostModel: scenario.NewFleetHost(spec), tr: tr}
	}, r, tr)
	if err != nil {
		return err
	}
	r.check(rounds[0].digest == want, "traced run: digest %s, untraced %s", rounds[0].digest, want)
	if err := tr.writeSpans(spansPath(o.workload)); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	n := float64(len(rounds))
	ticks := tr.stats[layerMachineTick]
	cluster := tr.stats[layerCluster]
	for _, rd := range rounds {
		cluster.totalNs -= int64(rd.kernel) // outcome time excludes the kernel
	}
	machineTicks := float64(ticks.calls) / n
	outcomeTicks := float64(fleetHosts*fleetTicks) - machineTicks
	durs := append([]int64(nil), tr.durs[layerMachineTick]...)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	r.set("fleet.machine_host_ticks", machineTicks, "count")
	r.set("fleet.outcome_host_ticks", outcomeTicks, "count")
	r.set("fleet.outcome_ns_per_host_tick", float64(cluster.totalNs-ticks.totalNs)/(outcomeTicks*n), "ns")
	r.set("scenario.machine_tick_samples", float64(len(durs)), "count")
	r.set("scenario.machine_tick_ms.p50", float64(quantile(durs, 0.5))/1e6, "ms")
	r.set("scenario.machine_tick_ms.p95", float64(quantile(durs, 0.95))/1e6, "ms")
	r.set("scenario.machine_tick_share", float64(ticks.totalNs)/float64(cluster.totalNs), "frac")
	r.set("trace.units", n*fleetHosts*fleetTicks, "count")
	rates, _, _ := roundRates(rounds)
	setOverhead(r, untracedRate, median(rates))

	// Full-machine hosts build a machine on their first tick and rebuild
	// it on iocost when the migration wave reaches them; time builds of
	// the same seed-drawn device and controller mix.
	draws := rng.Derive(o.seed, 0xbe7c4)
	ms, kb, err := timeNewMachine(func(i int) exp.MachineConfig {
		cfg := exp.MachineConfig{Device: exp.FleetHostDevice(draws), Controller: exp.FleetHostController(draws), Seed: o.seed + uint64(i)}
		if i%2 == 1 {
			cfg.Controller = exp.KindIOCost
		}
		return cfg
	})
	if err != nil {
		return err
	}
	r.set("exp.new_machine_ms", ms, "ms")
	r.set("exp.new_machine_alloc_kb", kb, "kB")
	return nil
}

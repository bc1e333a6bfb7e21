// Full-fidelity fleet hosts: the fleet.MachineFactory that backs
// `iocost-fleet -fidelity full|sampled`.
//
// Each host is a real exp.Machine — a seed-drawn device model (Figure 3's
// fleet SSDs plus the evaluation SSDs), a seed-drawn legacy controller
// (mostly io.latency) that flips to iocost when the migration wave reaches
// the host, and a two-cgroup workload mix (protected service vs best-effort
// bulk) whose bulk demand tracks the same pressure population the outcome
// model draws from. The machine's engine is stepped in small virtual-time
// windows: one window samples a tick's steady state instead of simulating
// the whole simulated hour, and scaled probe operations (fleet.OpProbe)
// stand in for the tick's fleet operations — their completion times,
// multiplied back up by the probe scale, are judged against the real op
// deadline.
//
// Determinism contract: a host is a pure function of (fleet seed, host ID).
// Every draw comes from per-host streams derived under scenario-owned tags
// (disjoint from the fleet package's), storm draws come from a dedicated
// stream consumed only under an active storm, and each host owns a private
// engine while it runs — so fleets mixing full machines stay byte-identical
// at every worker count. Machines are recycled between hosts through
// Machine.Reset, which builds exactly what a fresh machine would.
package scenario

import (
	"sync"

	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

// Scenario-owned stream tags for full-fidelity fleet hosts. They must stay
// disjoint from the fleet package's 0x705714c857_* selection tags — the
// two tag spaces derive from the same fleet seed.
const (
	fleetHostDrawTag  = 0x5cfe14057_000001 // device/controller/mix/pressure/probe draws
	fleetHostStormTag = 0x5cfe14057_000002 // storm outcome draws
	fleetHostBuildTag = 0x5cfe14057_000003 // per-(re)build machine seeds
)

const (
	// probeScale shrinks the fleet operation for probing: chunk count and
	// deadline divided by 24 keep a cleanup probe at 20 chunks / ~208ms
	// and a fetch probe at 8 chunks / ~417ms — big enough to feel the
	// controller, small enough to run twenty per tick window.
	probeScale = 24
	// settleWindow lets the retargeted workload mix establish contention
	// before the tick's probes are measured, as the curve cells' 500ms
	// settle does in fleet.RunOp.
	settleWindow = 50 * sim.Millisecond
	// graceStep is the engine step while waiting out probe stragglers.
	graceStep = 10 * sim.Millisecond
	// readCapBps/writeCapBps define pressure 1.0, matching the pressure
	// workload fleet.RunOp gives the curve cells, so both fidelities mean
	// the same thing by "p".
	readCapBps  = 450e6
	writeCapBps = 120e6
	// probeRegion is where probe IO lands (bulk and protected replayers
	// occupy the low offsets).
	probeRegion = int64(1) << 41
)

// mix64 is the splitmix64 finalizer (same avalanche the fleet package uses
// to spread sequential host IDs across stream tags).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewFleetHost builds the full-fidelity host model for one fleet host: the
// standard fleet.MachineFactory. Wire it as ClusterConfig.Fidelity.Machine.
func NewFleetHost(spec fleet.HostSpec) fleet.HostModel {
	h := &fleetHost{
		spec: spec,
		r:    rng.Derive(spec.Seed, fleetHostDrawTag^mix64(uint64(spec.Host)+1)),
		sr:   rng.Derive(spec.Seed, fleetHostStormTag^mix64(uint64(spec.Host)+1)),
	}
	// Construction-time draws, in fixed order regardless of configuration:
	// device, legacy controller, workload mix.
	h.dev = exp.FleetHostDevice(h.r)
	h.legacyCtl = exp.FleetHostController(h.r)
	h.protProf, h.bulkProf = workload.FleetHostMix(h.r)
	h.probe = spec.Kind.Probe(probeScale)
	return h
}

type fleetHost struct {
	spec fleet.HostSpec
	r    *rng.Source // draw stream (construction, pressure, probes)
	sr   *rng.Source // storm stream, consumed only under an active storm

	dev       exp.DeviceChoice
	legacyCtl string
	protProf  workload.DemandProfile
	bulkProf  workload.DemandProfile
	probe     fleet.OpProbe

	m        *exp.Machine
	migrated bool
	rebuilds int
	protCG   *cgroup.Node
	bulkCG   *cgroup.Node
	probeCG  *cgroup.Node
	// prot and bulk are built on the first tick and reset on every later
	// one; probes are the tick's probe operations, reused the same way.
	prot   *workload.Replayer
	bulk   *workload.Replayer
	probes []hostProbe
}

// hostProbe is one probe operation of a host's tick: where its chunks
// land and what it measured.
type hostProbe struct {
	h    *fleetHost
	base int64
	st   fleet.OpState
}

// startProbe starts a tick's probe operation at its slot in the window.
// It is a package-level func so scheduling it stores no closure.
func startProbe(a any) {
	p := a.(*hostProbe)
	h := p.h
	h.probe.Start(h.m.Q, h.probeCG, p.base, h.r, &p.st)
}

// maxRetiredMachines bounds the retired-machine free list. Each worker
// runs one full host at a time, so the list seldom holds more than the
// worker count; the bound caps what it can keep reachable between runs.
const maxRetiredMachines = 8

// retired is the free list of machines whose hosts ran their last tick. It
// is shared by every shard and worker: a sampled fleet has far more shards
// than full hosts, so a per-shard list would almost never hit. It is a
// plain list rather than a sync.Pool because the GC empties a sync.Pool
// mid-round. It is package state because NewFleetHost is a plain
// fleet.MachineFactory with nowhere to carry a per-run list. A
// Machine.Reset machine runs exactly as a fresh one, so which host
// inherits which machine changes no output.
var retired struct {
	sync.Mutex
	free []*exp.Machine
}

// newMachine returns a machine built to cfg: a retired one, reset, when
// the free list has one, otherwise a fresh one.
func newMachine(cfg exp.MachineConfig) *exp.Machine {
	retired.Lock()
	var m *exp.Machine
	if n := len(retired.free); n > 0 {
		m = retired.free[n-1]
		retired.free[n-1] = nil
		retired.free = retired.free[:n-1]
	}
	retired.Unlock()
	if m == nil {
		return exp.MustNewMachine(cfg)
	}
	if err := m.Reset(cfg); err != nil {
		panic(err)
	}
	return m
}

// retire retires a machine nothing uses any more, so the list keeps only
// its engine and bio pool reachable, and hands it to the free list, or to
// the GC when the list is full.
func retire(m *exp.Machine) {
	if err := m.Retire(); err != nil {
		panic(err)
	}
	retired.Lock()
	if len(retired.free) < maxRetiredMachines {
		retired.free = append(retired.free, m)
	}
	retired.Unlock()
}

// build assembles the host's machine: a reset retired one, or a fresh one.
// The host is rebuilt, on its own machine reset, when the migration wave
// flips it (a real migration restarts the IO stack); the controller is the
// only thing that changes, but the rebuild seed advances so the two stacks
// don't replay identical device noise.
func (h *fleetHost) build(migrated bool) {
	ctl := h.legacyCtl
	if migrated {
		ctl = exp.KindIOCost
	}
	seed := rng.DeriveSeed(h.spec.Seed,
		fleetHostBuildTag^mix64(uint64(h.spec.Host)+1)) + uint64(h.rebuilds)
	cfg := exp.MachineConfig{
		Device:     h.dev,
		Controller: ctl,
		Seed:       seed,
	}
	if h.m == nil {
		h.m = newMachine(cfg)
	} else if err := h.m.Reset(cfg); err != nil {
		panic(err)
	}
	h.rebuilds++
	h.migrated = migrated

	// The paper's two-tier workload split: the protected service holds
	// most of the workload slice's weight, bulk gets the remainder.
	h.protCG = h.m.Workload.NewChild("protected", 800)
	h.bulkCG = h.m.Workload.NewChild("besteffort", 100)
	parent := h.m.HostCritical
	if h.probe.System {
		parent = h.m.System
	}
	h.probeCG = parent.NewChild("op", cgroup.DefaultWeight)
}

// retarget restarts the replayers to match this tick's pressure: the
// protected service keeps its fixed profile, bulk absorbs the rest of
// p × device capability (what "pressure" means to the outcome model).
// Reset replayers run, and count, exactly what fresh ones would.
func (h *fleetHost) retarget(p float64, tick int) {
	bulk := h.bulkProf
	bulk.ReadBps = max(p*readCapBps-h.protProf.ReadBps, 0)
	bulk.WriteBps = max(p*writeCapBps-h.protProf.WriteBps, 0)
	seed := rng.DeriveSeed(h.spec.Seed,
		fleetHostBuildTag^mix64(uint64(h.spec.Host)+1)^mix64(uint64(tick)+0x7e11))
	if h.prot == nil {
		h.prot = workload.NewReplayer(h.m.Q, h.protCG, h.protProf, 0, seed)
		h.bulk = workload.NewReplayer(h.m.Q, h.bulkCG, bulk, 16<<30, seed+1)
	} else {
		h.prot.Reset(h.m.Q, h.protCG, h.protProf, 0, seed)
		h.bulk.Reset(h.m.Q, h.bulkCG, bulk, 16<<30, seed+1)
	}
	h.prot.Start()
	h.bulk.Start()
}

// Tick runs one fleet tick: (re)build on migration flip, draw pressure,
// retarget the workload mix, run the tick's probe operations inside the
// virtual-time window, and settle each probe against the real op deadline.
func (h *fleetHost) Tick(env fleet.HostTickEnv, acc *fleet.Summary) fleet.HostTickResult {
	if h.m == nil || env.Migrated != h.migrated {
		h.build(env.Migrated)
	}

	p := fleet.DrawPressure(h.r)
	h.retarget(p, env.Tick)

	eng := h.m.Eng
	eng.RunUntil(eng.Now() + settleWindow)

	probe := h.probe
	ops := h.spec.OpsPerHostTick
	window := h.spec.Window
	if h.probes == nil {
		probeSpan := int64(probe.Chunks) * probe.Chunk
		if probe.RandomOff {
			probeSpan = 1 << 30
		}
		h.probes = make([]hostProbe, ops)
		for i := range h.probes {
			h.probes[i] = hostProbe{h: h, base: probeRegion + int64(i)*probeSpan}
		}
	}
	start := eng.Now()
	spacing := window / sim.Time(ops)
	for i := range h.probes {
		eng.AtCall(start+sim.Time(i)*spacing, startProbe, &h.probes[i])
	}
	eng.RunUntil(start + window)

	// Grace: wait out probes up to 3x their scaled deadline. A probe still
	// running then is recorded at that 3x timeout, the same value a curve
	// cell (fleet.RunOp) records for an unfinished operation. Unlike a
	// cell the window cannot end at the deadline: push and storm factors
	// rescale the measured latency before it is judged.
	graceEnd := start + window + 3*probe.Deadline
	for eng.Now() < graceEnd {
		done := true
		for i := range h.probes {
			if !h.probes[i].st.Done {
				done = false
				break
			}
		}
		if done {
			break
		}
		eng.RunUntil(min(eng.Now()+graceStep, graceEnd))
	}

	// Settlement: scale measured probe latencies back to full-op terms and
	// judge them exactly like the outcome model judges its draws — healthy
	// failures (deadline miss or the non-IO base-fail floor) first, storm
	// injection second, timeouts recorded at 3x deadline.
	deadline := h.spec.Kind.Deadline()
	timeoutNS := int64(3 * deadline)
	healthyFails, stormFails := 0, 0
	for i := range h.probes {
		st := &h.probes[i].st
		// A straggler still completes, but issues no further chunk and
		// takes no further draw from h.r.
		st.Stop()
		measured := 3 * probe.Deadline
		if st.Done && st.Lat < measured {
			measured = st.Lat
		}
		lat := float64(measured) * float64(probe.Scale)
		if env.Pushed {
			lat *= env.PushLatFactor
		}
		lat *= env.StormLatMult

		// The base-fail draw always comes — and only comes — from the
		// draw stream, in probe order; storm draws only under a storm.
		baseFail := h.r.Bool(h.spec.Kind.BaseFailProb())
		fail := sim.Time(lat) > deadline || baseFail
		sFail := false
		if env.StormActive {
			sFail = h.sr.Bool(env.StormFailProb)
		}
		switch {
		case fail:
			healthyFails++
		case sFail:
			stormFails++
		}
		effLat := int64(lat)
		if fail || sFail || effLat > timeoutNS {
			effLat = timeoutNS
		}
		acc.Latency.Observe(effLat)
		if acc.Calib != nil {
			acc.Calib.PerTick[env.Tick].Full.Observe(effLat)
		}
	}

	// Per-workload calibration: what the protected and best-effort
	// replayers saw this tick (their stats restart at every retarget, so
	// the sketches pool tick windows without double counting).
	if acc.Calib != nil {
		acc.Calib.Protected.Merge(h.prot.ReadStats.Latency)
		acc.Calib.BestEffort.Merge(h.bulk.ReadStats.Latency)
	}

	// After its last tick the host hands its machine on.
	if env.Tick == h.spec.Ticks-1 {
		retire(h.m)
		h.m, h.prot, h.bulk, h.probes = nil, nil, nil, nil
	}

	return fleet.HostTickResult{
		Pressure: p, Ops: ops,
		HealthyFails: healthyFails, StormFails: stormFails,
	}
}

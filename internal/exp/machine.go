// Package exp implements the paper's experiments: one harness per table and
// figure of the evaluation (§4), runnable both from the bench suite and the
// iocost-bench command. Each harness builds the full stack — simulated
// device, block layer, controller, cgroup hierarchy, memory pool, workloads
// — runs the scenario, and reports the same rows/series the paper plots.
package exp

import (
	"fmt"
	"strings"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/check"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/flight"
	"github.com/iocost-sim/iocost/internal/mem"
	"github.com/iocost-sim/iocost/internal/metrics"
	"github.com/iocost-sim/iocost/internal/registry"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
	"github.com/iocost-sim/iocost/internal/trace"
)

// Controller kinds under comparison.
const (
	KindNone      = "none"
	KindMQDL      = "mq-deadline"
	KindKyber     = "kyber"
	KindThrottle  = "blk-throttle"
	KindBFQ       = "bfq"
	KindIOLatency = "iolatency"
	KindIOCost    = "iocost"
)

// AllKinds lists every mechanism in Table 1 order.
func AllKinds() []string {
	return []string{KindNone, KindMQDL, KindKyber, KindThrottle, KindBFQ, KindIOLatency, KindIOCost}
}

// CgroupKinds lists the cgroup-aware mechanisms compared in Figure 10/16.
func CgroupKinds() []string {
	return []string{KindThrottle, KindBFQ, KindIOLatency, KindIOCost}
}

// DeviceChoice selects the device model for a machine; exactly one field
// set.
type DeviceChoice struct {
	SSD    *device.SSDSpec
	HDD    *device.HDDSpec
	Remote *device.RemoteSpec
}

func ssdChoice(spec device.SSDSpec) DeviceChoice { return DeviceChoice{SSD: &spec} }

// MachineConfig describes one simulated host.
type MachineConfig struct {
	Device     DeviceChoice
	Controller string
	// Engine, if non-nil, is the simulation engine to build on; machines
	// sharing an engine share one virtual clock (multi-machine
	// topologies). Nil creates a fresh engine.
	Engine *sim.Engine
	// IOCostCfg is used when Controller == KindIOCost. Model, if nil, is
	// derived from the device spec (ideal profiling).
	IOCostCfg core.Config
	// Mem, if non-nil, attaches a memory pool.
	Mem *mem.Config
	// Tags overrides the block-layer tag count.
	Tags int
	Seed uint64

	// Trace attaches a telemetry recorder (Machine.Trace) capturing the
	// full bio life-cycle and, under iocost, controller events. TraceCap
	// bounds the event ring (0 selects trace.DefaultCap).
	Trace    bool
	TraceCap int
	// Pressure attaches a live PSI collector (Machine.Pressure).
	Pressure bool

	// Flight, if non-nil, attaches an always-on flight recorder
	// (Machine.Flight): a bounded black-box trace ring with
	// dump-on-trigger incident bundles. A registry is built even when
	// Metrics is false (triggers read it), but the Sampler only runs
	// under Metrics. When the flight config carries no fault plan, the
	// machine's Faults plan is used for storm triggers and blame
	// attribution.
	Flight *flight.Config

	// Metrics attaches a metrics registry spanning every layer
	// (Machine.Registry) and a virtual-time sampler scraping it into
	// bounded time-series (Machine.Sampler). MetricsInterval overrides
	// the sample interval (0 selects metrics.DefaultSampleInterval).
	Metrics         bool
	MetricsInterval sim.Time

	// Faults, when non-empty, wraps the device in a fault injector
	// (Machine.Fault) executing the plan on the virtual clock, seeded
	// deterministically from Seed.
	Faults fault.Plan
	// Retry overrides the block layer's failure handling. Nil selects
	// blk.DefaultRetryPolicy when Faults is non-empty (failures without a
	// retry path would just be lost IO) and the zero policy — no
	// deadlines, no retries, byte-identical to historical runs —
	// otherwise.
	Retry *blk.RetryPolicy
}

// Validate checks the configuration without building anything: exactly one
// device selected, a registered controller name, non-negative sizes, and a
// well-formed fault plan. NewMachine calls it first, so every construction
// error is a typed error, not a panic.
func (cfg MachineConfig) Validate() error {
	n := 0
	for _, set := range []bool{cfg.Device.SSD != nil, cfg.Device.HDD != nil, cfg.Device.Remote != nil} {
		if set {
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("exp: MachineConfig.Device must select a device")
	}
	if n > 1 {
		return fmt.Errorf("exp: MachineConfig.Device selects %d devices, want exactly one", n)
	}
	if name := cfg.Controller; name != "" && !ctl.Known(name) {
		return fmt.Errorf("exp: unknown controller %q (have: %s)",
			name, strings.Join(ctl.Names(), ", "))
	}
	if cfg.Tags < 0 {
		return fmt.Errorf("exp: MachineConfig.Tags is negative: %d", cfg.Tags)
	}
	if cfg.TraceCap < 0 {
		return fmt.Errorf("exp: MachineConfig.TraceCap is negative: %d", cfg.TraceCap)
	}
	if cfg.MetricsInterval < 0 {
		return fmt.Errorf("exp: MachineConfig.MetricsInterval is negative: %v", cfg.MetricsInterval)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return fmt.Errorf("exp: MachineConfig.Faults: %w", err)
	}
	if cfg.Flight != nil {
		if err := cfg.Flight.Validate(); err != nil {
			return fmt.Errorf("exp: MachineConfig.Flight: %w", err)
		}
	}
	if p := cfg.Retry; p != nil {
		if p.MaxRetries < 0 || p.Backoff < 0 || p.Deadline < 0 {
			return fmt.Errorf("exp: MachineConfig.Retry fields must be non-negative: %+v", *p)
		}
	}
	return nil
}

// Machine is a fully assembled host.
type Machine struct {
	Eng *sim.Engine
	// Dev is what the block layer talks to: the device model, or the
	// fault injector wrapping it when MachineConfig.Faults is set.
	Dev    device.Device
	Q      *blk.Queue
	Ctl    blk.Controller
	IOCost *core.Controller // non-nil iff the controller is iocost
	Hier   *cgroup.Hierarchy
	Mem    *mem.Pool

	// Fault is the injector when MachineConfig.Faults is non-empty.
	Fault *fault.Injector

	// Trace is the telemetry recorder when MachineConfig.Trace is set.
	Trace *trace.Recorder
	// Flight is the black-box recorder when MachineConfig.Flight is set.
	Flight *flight.Recorder
	// Pressure is the PSI collector when MachineConfig.Pressure is set.
	Pressure *metrics.IOPressure
	// Registry and Sampler are the metrics surface when
	// MachineConfig.Metrics is set.
	Registry *registry.Registry
	Sampler  *metrics.Sampler

	// The production hierarchy of Figure 1.
	System       *cgroup.Node
	HostCritical *cgroup.Node
	Workload     *cgroup.Node

	// pool is the queue's bio pool; it, Eng and the queue's latency
	// sketches (lat, for the next build's queue) are all Retire keeps.
	pool *bio.Pool
	lat  [2]*stats.Histogram
	// ownEng says NewMachine built Eng, so Retire may reset it.
	ownEng bool
}

// newIOCostController builds a standalone IOCost controller for an SSD with
// the device's default config (DeviceChoice.IOCostConfig), for experiments
// that assemble multi-machine topologies by hand. Construction goes through
// the ctl registry like every other path.
func newIOCostController(spec device.SSDSpec) *core.Controller {
	c, err := ctl.New(KindIOCost, ctl.Config{Custom: ssdChoice(spec).IOCostConfig()})
	if err != nil {
		panic(err)
	}
	return c.(*core.Controller)
}

// iocostConfig completes cfg.IOCostCfg with the device's defaults
// (DeviceChoice.IOCostConfig) wherever it leaves the model or QoS unset.
func iocostConfig(cfg MachineConfig) core.Config {
	c := cfg.IOCostCfg
	if c.Model != nil && c.QoS != (core.QoS{}) {
		return c
	}
	def := cfg.Device.IOCostConfig()
	if c.Model == nil {
		c.Model = def.Model
	}
	if c.QoS == (core.QoS{}) {
		c.QoS = def.QoS
	}
	return c
}

// deviceSeedTag derives the device's noise seed from the machine seed.
const deviceSeedTag = 0xde5

// faultSeedTag derives the injector's seed stream from the machine seed, so
// enabling faults never perturbs device or workload randomness.
const faultSeedTag = 0xfa17

// NewMachine assembles a host. Configuration errors (no device, unknown
// controller, malformed fault plan) are returned, not panicked; see
// MachineConfig.Validate.
func NewMachine(cfg MachineConfig) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Eng: cfg.Engine, pool: bio.NewPool(), ownEng: cfg.Engine == nil}
	if m.ownEng {
		m.Eng = sim.New()
	}
	if err := m.build(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Retire releases everything m's last run built and keeps only its engine
// and bio pool, for a later Reset: the engine is reset, every pending
// event released so no callback of the old run stays reachable, and the
// pool reclaimed. A retired machine has no device, queue or controller;
// Reset is the only call it takes. Retiring twice is harmless.
//
// Retire is legal only when nothing still uses the old machine's
// components or live bios, and only on a machine that owns its engine —
// one built with a nil MachineConfig.Engine — because resetting a shared
// engine would wipe its other machines' events.
func (m *Machine) Retire() error {
	if !m.ownEng {
		return fmt.Errorf("exp: Machine.Retire of a machine on a shared engine")
	}
	m.Eng.Reset()
	m.pool.Reclaim()
	lat := m.lat
	if m.Q != nil {
		lat = [2]*stats.Histogram{m.Q.ReadLat, m.Q.WriteLat}
	}
	*m = Machine{Eng: m.Eng, pool: m.pool, lat: lat, ownEng: true}
	return nil
}

// Reset rebuilds m in place as NewMachine(cfg) would build it: it retires
// m, then runs the build NewMachine runs on the kept engine and pool. A
// reset machine runs exactly as a fresh one does while skipping the
// engine's wheel and the pool's bios, most of a build's allocation. The
// new queue takes over the old one's ReadLat and WriteLat, emptied, so
// they must not be read through the old queue after a Reset.
//
// Reset has Retire's conditions, and cfg.Engine must be nil or m.Eng
// itself. A configuration error leaves m untouched; any later error leaves
// it unusable.
func (m *Machine) Reset(cfg MachineConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Engine != nil && cfg.Engine != m.Eng {
		return fmt.Errorf("exp: Machine.Reset onto a different engine")
	}
	if err := m.Retire(); err != nil {
		return err
	}
	return m.build(cfg)
}

// build assembles a validated cfg into m, which holds only its engine and
// bio pool. NewMachine and Reset differ only in where those come from.
func (m *Machine) build(cfg MachineConfig) error {
	eng := m.Eng
	m.Hier = cgroup.NewHierarchy()

	m.Dev = cfg.Device.New(eng, rng.DeriveSeed(cfg.Seed, deviceSeedTag))

	if !cfg.Faults.Empty() {
		inj, err := fault.NewInjector(eng, m.Dev, cfg.Faults, rng.DeriveSeed(cfg.Seed, faultSeedTag))
		if err != nil {
			return err
		}
		m.Fault = inj
		m.Dev = inj
	}

	name := cfg.Controller
	if name == "" {
		name = KindNone
	}
	var ctlCfg ctl.Config
	if name == KindIOCost {
		ctlCfg.Custom = iocostConfig(cfg)
	}
	c, err := ctl.New(name, ctlCfg)
	if err != nil {
		return fmt.Errorf("exp: %w", err)
	}
	m.Ctl = c
	if ioc, ok := c.(*core.Controller); ok {
		m.IOCost = ioc
	}

	// Under the sanitizer build tag every machine runs with invariant
	// checking on: violations panic, turning the whole experiment suite
	// into a sanitizer suite. The sanitizer is read-only, so results are
	// identical to unsanitized runs. m.Ctl stays the concrete controller
	// (experiments type-assert it); only the block layer sees the wrapper.
	// Deep checks are sampled to keep the tagged suite's runtime
	// reasonable; the per-bio state machine is always enforced.
	qctl := m.Ctl
	if check.Enabled {
		qctl = check.Wrap(m.Ctl, check.Options{Hier: m.Hier, DeepEvery: 64})
	}

	m.Q = blk.NewWithPool(eng, m.Dev, qctl, cfg.Tags, m.pool, m.lat[0], m.lat[1])
	switch {
	case cfg.Retry != nil:
		m.Q.SetRetryPolicy(*cfg.Retry)
	case m.Fault != nil:
		// Faults without a retry/timeout path would just lose IO; default
		// to the kernel-like policy.
		m.Q.SetRetryPolicy(blk.DefaultRetryPolicy())
	}

	// Telemetry observers stack after the sanitizer (if any) in
	// deterministic registration order; both are read-only, so enabling
	// them never changes an experiment's schedule.
	if cfg.Pressure {
		m.Pressure = metrics.NewIOPressure(eng)
		m.Pressure.Attach(m.Q)
	}
	if cfg.Trace {
		m.Trace = trace.NewRecorder(eng, cfg.TraceCap)
		m.Trace.Attach(m.Q)
	}
	if cfg.Flight != nil {
		fc := *cfg.Flight
		if fc.Plan.Empty() {
			fc.Plan = cfg.Faults
		}
		if fc.Meta == nil {
			fc.Meta = map[string]string{
				"seed":       fmt.Sprintf("%d", cfg.Seed),
				"controller": name,
			}
		}
		fl, err := flight.New(eng, fc)
		if err != nil {
			return fmt.Errorf("exp: %w", err)
		}
		m.Flight = fl
		fl.Attach(m.Q)
	}
	// The controller has a single event sink; tee when both the main
	// trace and the black box want controller events.
	if m.IOCost != nil {
		var sinks []core.EventSink
		if m.Trace != nil {
			sinks = append(sinks, m.Trace)
		}
		if m.Flight != nil {
			sinks = append(sinks, m.Flight.TraceRecorder())
		}
		switch len(sinks) {
		case 1:
			m.IOCost.SetEventSink(sinks[0])
		case 2:
			m.IOCost.SetEventSink(multiSink(sinks))
		}
	}

	// Figure 1 hierarchy.
	m.System = m.Hier.Root().NewChild("system", 50)
	m.HostCritical = m.Hier.Root().NewChild("hostcritical", 100)
	m.Workload = m.Hier.Root().NewChild("workload", 850)

	if cfg.Mem != nil {
		mc := *cfg.Mem
		if mc.DebtDelay == nil && m.IOCost != nil {
			mc.DebtDelay = m.IOCost.Delay
		}
		m.Mem = mem.NewPool(m.Q, mc)
	}

	// The metrics registry registers last so it can see every component.
	// Registration order fixes export order; collectors are pull-based,
	// so an enabled registry adds no per-bio work — cost is paid only
	// when the sampler scrapes. Flight triggers read the registry, so a
	// flight recorder forces one into existence even without Metrics.
	if cfg.Metrics || cfg.Flight != nil {
		m.Registry = registry.New()
		m.Q.RegisterMetrics(m.Registry)
		dev := m.Dev
		if m.Fault != nil {
			dev = m.Fault.Device()
		}
		if reg, ok := dev.(registry.Registrar); ok {
			reg.RegisterMetrics(m.Registry)
		}
		if m.Fault != nil {
			m.Fault.RegisterMetrics(m.Registry)
		}
		m.Hier.RegisterMetrics(m.Registry)
		if reg, ok := m.Ctl.(registry.Registrar); ok {
			reg.RegisterMetrics(m.Registry)
		}
		if m.Mem != nil {
			m.Mem.RegisterMetrics(m.Registry)
		}
		if m.Pressure != nil {
			m.Pressure.RegisterMetrics(m.Registry)
		}
		var streams []trace.RecorderStream
		if m.Trace != nil {
			streams = append(streams, trace.RecorderStream{Stream: "trace", Rec: m.Trace})
		}
		if m.Flight != nil {
			streams = append(streams, trace.RecorderStream{Stream: "flight", Rec: m.Flight.TraceRecorder()})
		}
		trace.RegisterRecorderMetrics(m.Registry, streams)
		if cfg.Metrics {
			m.Sampler = metrics.NewSampler(eng, m.Registry, metrics.SamplerConfig{
				Interval: cfg.MetricsInterval,
			})
			m.Sampler.Start()
		}
	}
	if m.Flight != nil {
		if err := m.Flight.BindRegistry(m.Registry); err != nil {
			return fmt.Errorf("exp: %w", err)
		}
		if err := m.Flight.Start(); err != nil {
			return fmt.Errorf("exp: %w", err)
		}
	}
	return nil
}

// multiSink fans controller events out to several recorders (the main
// trace and the flight recorder's black box observe independently).
type multiSink []core.EventSink

func (m multiSink) ControllerEvent(at sim.Time, kind core.CtlEventKind, cg *cgroup.Node, value float64) {
	for _, s := range m {
		s.ControllerEvent(at, kind, cg, value)
	}
}

// MustNewMachine is NewMachine for code-authored configurations that are
// correct by construction (the figure harnesses, tests): it panics on error.
func MustNewMachine(cfg MachineConfig) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Run advances the machine's clock to t.
func (m *Machine) Run(t sim.Time) { m.Eng.RunUntil(t) }

// RunFor advances the machine's clock by d from wherever it stands now —
// the window-stepping the fleet's full-fidelity hosts use to sample one
// steady-state window per tick instead of simulating the whole tick.
func (m *Machine) RunFor(d sim.Time) { m.Eng.RunUntil(m.Eng.Now() + d) }

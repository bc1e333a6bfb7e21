package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/tune"
	"github.com/iocost-sim/iocost/internal/workload"
)

// stackSpec is a single-machine workload: one device and controller under
// three cgroups, w100 (random 4 KiB reads at depth 32), w200 (sequential
// writes at depth 8) and w500 (random 4 KiB reads with 200 µs think time),
// all closed loop.
type stackSpec struct {
	dev        device.SSDSpec
	controller string
	writeSize  int64
	// warmup is the virtual time run during set-up, long enough to fill
	// the bio pools and the timing wheel.
	warmup sim.Time
	// checkEvery is the virtual time between output checkpoints.
	checkEvery sim.Time
	// pinAt is the checkpoint whose digest is pinned; every run reaches
	// it, however short its -seconds.
	pinAt int
	// pins maps a seed to its digest at checkpoint pinAt.
	pins map[uint64]string
}

func (s stackSpec) choice() exp.DeviceChoice { d := s.dev; return exp.DeviceChoice{SSD: &d} }

var stackIOCost = stackSpec{
	dev:        device.NewerGenSSD(),
	controller: exp.KindIOCost,
	writeSize:  64 << 10,
	warmup:     3 * sim.Second,
	checkEvery: sim.Second,
	pinAt:      4,
	pins: map[uint64]string{
		defaultSeed: "e299fda474c2bfa5",
		heldOutSeed: "a22bd2f8a4183603",
	},
}

var stackNull = stackSpec{
	dev:        device.NullSSD(),
	controller: exp.KindNone,
	writeSize:  4 << 10,
	warmup:     sim.Second,
	checkEvery: 250 * sim.Millisecond,
	pinAt:      4,
	// The null device ignores offsets, the one thing the seed changes
	// here, so every seed gives the same output.
	pins: map[uint64]string{
		defaultSeed: "234f31423ca83c48",
		heldOutSeed: "234f31423ca83c48",
	},
}

const (
	// defaultSeed is the -seed default; heldOutSeed is a second pinned
	// seed, kept out of tuning.
	defaultSeed uint64 = 1
	heldOutSeed uint64 = 20261017

	// setupRepeats is how many independent set-ups a run times; setup_s
	// is their median.
	setupRepeats = 7
	// rateWindow is the shortest host time one throughput sample covers;
	// units_per_s is the median of the samples.
	rateWindow = 500 * time.Millisecond
)

// load is one cgroup workload of a stack.
type load struct {
	name  string
	size  int64
	stats *workload.Stats
}

// stack is one assembled machine running the three cgroup workloads.
type stack struct {
	eng   *sim.Engine
	loads []load
	// tr, when set, times every advance as a sim.run span.
	tr *tracer
}

// newMachineStack assembles the stack through exp.NewMachine, as every
// experiment does.
func newMachineStack(spec stackSpec, seed uint64) (*stack, error) {
	m, err := exp.NewMachine(exp.MachineConfig{Device: spec.choice(), Controller: spec.controller, Seed: seed})
	if err != nil {
		return nil, err
	}
	return startLoads(m.Eng, m.Q, m.Workload, spec, seed), nil
}

// deviceSeedTag is the tag exp.NewMachine derives the device noise seed
// under; the traced assembly must use the same one to reproduce its
// digest (a self-test pins this).
const deviceSeedTag = 0xde5

// newTracedStack assembles the same stack from the constructors
// exp.NewMachine uses, with timing wrappers around the device, the
// controller and the completion callback blk hands the device.
func newTracedStack(spec stackSpec, seed uint64, tr *tracer) (*stack, *issueObserver, error) {
	eng := sim.New()
	dev := spec.choice().New(eng, rng.DeriveSeed(seed, deviceSeedTag))
	var cfg ctl.Config
	if spec.controller == exp.KindIOCost {
		cfg.Custom = core.Config{
			Model: core.MustLinearModel(tune.IdealSSDParams(spec.dev)),
			QoS:   tune.HandTunedSSD(spec.dev),
		}
	}
	c, err := ctl.New(spec.controller, cfg)
	if err != nil {
		return nil, nil, err
	}
	obs := &issueObserver{}
	q := blk.New(eng, &tracedDevice{Device: dev, tr: tr}, &tracedController{Controller: c, tr: tr, obs: obs}, 0)
	q.AddObserver(obs)
	hier := cgroup.NewHierarchy()
	hier.Root().NewChild("system", 50)
	hier.Root().NewChild("hostcritical", 100)
	wl := hier.Root().NewChild("workload", 850)
	s := startLoads(eng, q, wl, spec, seed)
	s.tr = tr
	return s, obs, nil
}

// startLoads creates and starts the three cgroup workloads under parent.
func startLoads(eng *sim.Engine, q *blk.Queue, parent *cgroup.Node, spec stackSpec, seed uint64) *stack {
	r := workload.NewSaturator(q, workload.SaturatorConfig{
		CG: parent.NewChild("w100", 100), Op: bio.Read, Pattern: workload.Random,
		Size: 4096, Depth: 32, Seed: rng.DeriveSeed(seed, 1),
	})
	w := workload.NewSaturator(q, workload.SaturatorConfig{
		CG: parent.NewChild("w200", 200), Op: bio.Write, Pattern: workload.Sequential,
		Size: spec.writeSize, Depth: 8, Region: 32 << 30, Seed: rng.DeriveSeed(seed, 2),
	})
	t := workload.NewThinkTime(q, workload.ThinkTimeConfig{
		CG: parent.NewChild("w500", 500), Op: bio.Read, Pattern: workload.Random,
		Size: 4096, Think: 200 * sim.Microsecond, Region: 64 << 30, Seed: rng.DeriveSeed(seed, 3),
	})
	r.Start()
	w.Start()
	t.Start()
	return &stack{eng: eng, loads: []load{
		{"w100", 4096, r.Stats},
		{"w200", spec.writeSize, w.Stats},
		{"w500", 4096, t.Stats},
	}}
}

// advance runs the machine to virtual time t.
func (s *stack) advance(t sim.Time) {
	if s.tr != nil {
		s.tr.begin(layerRun)
		s.eng.RunUntil(t)
		s.tr.end()
		return
	}
	s.eng.RunUntil(t)
}

func (s *stack) units() uint64 {
	var n uint64
	for _, l := range s.loads {
		n += l.stats.Done
	}
	return n
}

// summary is the simulated output a digest covers: per-cgroup completions,
// bytes and latency p50/p99, events run and the virtual clock.
func (s *stack) summary() string {
	var b strings.Builder
	for _, l := range s.loads {
		fmt.Fprintf(&b, "%s done=%d bytes=%d p50=%d p99=%d\n", l.name, l.stats.Done, l.stats.Bytes,
			l.stats.Latency.Quantile(0.5), l.stats.Latency.Quantile(0.99))
	}
	fmt.Fprintf(&b, "events=%d now=%d\n", s.eng.EventsRun(), s.eng.Now())
	return b.String()
}

func digest(summary string) string {
	h := sha256.Sum256([]byte(summary))
	return hex.EncodeToString(h[:8])
}

// sane checks what must hold at every checkpoint whatever the seed.
func (s *stack) sane() error {
	for _, l := range s.loads {
		st := l.stats
		p50, p99 := st.Latency.Quantile(0.5), st.Latency.Quantile(0.99)
		switch {
		case st.Done == 0:
			return fmt.Errorf("%s completed nothing", l.name)
		case st.Bytes != st.Done*uint64(l.size):
			return fmt.Errorf("%s: %d bytes for %d bios of %d", l.name, st.Bytes, st.Done, l.size)
		case p50 <= 0 || p50 > p99:
			return fmt.Errorf("%s: latency p50=%d p99=%d", l.name, p50, p99)
		}
	}
	return nil
}

// phase is what one measured phase saw.
type phase struct {
	units uint64
	// rates are units per nominal host second (see calib.go) over
	// consecutive windows of at least rateWindow.
	rates []float64
	// rawRate is units per wall second over the whole phase, kernel runs
	// excluded.
	rawRate float64
	// slowdown is the host's calibration slowdown over the phase.
	slowdown float64
	// digests are taken at checkpoints 1, 2, ...
	digests []string
	events  uint64
	// prefixAlloc is runtime.MemStats.TotalAlloc when checkpoint pinAt
	// was reached.
	prefixAlloc uint64
}

// calibSlices is how many calibration kernel runs each checkpoint
// interval and each warm-up interleaves with the simulation.
const calibSlices = 8

// measure runs the stack checkpoint by checkpoint from the end of its
// warm-up until seconds of host time have passed and checkpoint pinAt is
// reached, checking the output at every checkpoint.
func (s *stack) measure(spec stackSpec, seconds float64, r *report) phase {
	var p phase
	var all, win calibration
	u0, ev0 := s.units(), s.eng.EventsRun()
	start := time.Now()
	winStart, winUnits := start, u0
	limit := time.Duration(seconds * float64(time.Second))
	for k := 1; ; k++ {
		base := spec.warmup + sim.Time(k-1)*spec.checkEvery
		for j := 1; j <= calibSlices; j++ {
			s.advance(base + sim.Time(j)*spec.checkEvery/calibSlices)
			win.sample()
		}
		now := time.Now()
		if now.Sub(winStart)-win.total >= rateWindow {
			u := s.units()
			p.rates = append(p.rates, float64(u-winUnits)/win.normSeconds(now.Sub(winStart)))
			all.add(win)
			winStart, winUnits, win = now, u, calibration{}
		}
		err := s.sane()
		r.check(err == nil, "checkpoint %d: %v", k, err)
		p.digests = append(p.digests, digest(s.summary()))
		if k == spec.pinAt {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			p.prefixAlloc = ms.TotalAlloc
		}
		if k >= spec.pinAt && now.Sub(start) >= limit {
			all.add(win)
			p.units = s.units() - u0
			p.rawRate = float64(p.units) / (now.Sub(start) - all.total).Seconds()
			p.slowdown = all.slowdown()
			if len(p.rates) == 0 {
				p.rates = []float64{p.rawRate * p.slowdown}
			}
			break
		}
	}
	p.events = s.eng.EventsRun() - ev0
	return p
}

// setUpStack builds and warms up setupRepeats independent stacks and
// returns them with each set-up's time in nominal host seconds.
func setUpStack(spec stackSpec, seed uint64) ([]*stack, []float64, error) {
	stacks := make([]*stack, setupRepeats)
	times := make([]float64, setupRepeats)
	for i := range stacks {
		var cal calibration
		t0 := time.Now()
		s, err := newMachineStack(spec, seed)
		if err != nil {
			return nil, nil, err
		}
		for j := 1; j <= calibSlices; j++ {
			s.advance(sim.Time(j) * spec.warmup / calibSlices)
			cal.sample()
		}
		times[i] = cal.normSeconds(time.Since(t0))
		stacks[i] = s
	}
	return stacks, times, nil
}

// runStack runs one stack workload: set-up, the measured phase on the
// last stack set up, then the output checks — the pin for pinned seeds,
// and for every seed a replay of the first stack to checkpoint pinAt.
func runStack(spec stackSpec, o options, r *report) error {
	stacks, setupTimes, err := setUpStack(spec, o.seed)
	if err != nil {
		return err
	}
	var prof *cpuProfile
	var ms0 runtime.MemStats
	if o.trace {
		runtime.ReadMemStats(&ms0)
		if prof, err = startCPUProfile(); err != nil {
			return err
		}
	}
	s := stacks[len(stacks)-1]
	p := s.measure(spec, o.seconds, r)
	var ms1 runtime.MemStats
	var flat map[string]int64
	var samples int64
	if o.trace {
		runtime.ReadMemStats(&ms1)
		if flat, samples, err = prof.stop(); err != nil {
			return err
		}
	}

	want := p.digests[spec.pinAt-1]
	if pin, ok := spec.pins[o.seed]; ok {
		r.check(want == pin, "seed %d checkpoint %d: digest %s, pinned %s", o.seed, spec.pinAt, want, pin)
	}
	replay := stacks[0]
	replay.advance(spec.warmup + sim.Time(spec.pinAt)*spec.checkEvery)
	got := digest(replay.summary())
	r.check(got == want, "replay of seed %d to checkpoint %d: digest %s, measured run %s", o.seed, spec.pinAt, got, want)

	r.note("raw units_per_s %.6g (wall clock), host slowdown %.4f", p.rawRate, p.slowdown)
	if !o.trace {
		if err := setEndToEnd(r, median(setupTimes), median(p.rates), p.prefixAlloc); err != nil {
			return err
		}
		return checkDefaultPin(spec, o.seed, r)
	}
	if err := checkDefaultPin(spec, o.seed, r); err != nil {
		return err
	}
	setRuntimeMetrics(r, ms0, ms1, p.units)
	setCPUShares(r, flat, samples)
	r.set("calib.host_slowdown", p.slowdown, "x")
	return traceStack(spec, o, r, p)
}

// checkDefaultPin makes a run of a seed without a pin check the default
// seed's, so that a changed output fails a run of any seed. It runs after
// the end-to-end figures are taken.
func checkDefaultPin(spec stackSpec, seed uint64, r *report) error {
	if _, ok := spec.pins[seed]; ok {
		return nil
	}
	s, err := newMachineStack(spec, defaultSeed)
	if err != nil {
		return err
	}
	s.advance(spec.warmup + sim.Time(spec.pinAt)*spec.checkEvery)
	got, pin := digest(s.summary()), spec.pins[defaultSeed]
	r.check(got == pin, "seed %d checkpoint %d: digest %s, pinned %s", defaultSeed, spec.pinAt, got, pin)
	return nil
}

// traceStack runs the traced assembly for as long as the untraced phase
// and reports the per-layer breakdown.
func traceStack(spec stackSpec, o options, r *report, untraced phase) error {
	tr := newTracer()
	s, obs, err := newTracedStack(spec, o.seed, tr)
	if err != nil {
		return err
	}
	s.advance(spec.warmup)
	// Count the measured phase only.
	*tr = *newTracer()
	*obs = issueObserver{}
	p := s.measure(spec, o.seconds, r)
	for i := range p.digests {
		if i < len(untraced.digests) {
			r.check(p.digests[i] == untraced.digests[i], "traced checkpoint %d: digest %s, untraced %s",
				i+1, p.digests[i], untraced.digests[i])
		}
	}
	if err := tr.writeSpans(spansPath(o.workload)); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	u := float64(p.units)
	perUnit := func(l layer) float64 { return float64(tr.stats[l].selfNs) / u }
	r.set("trace.units", u, "count")
	r.set("sim.events_per_unit", float64(p.events)/u, "count")
	r.set("sim.run_self_ns_per_unit", perUnit(layerRun), "ns")
	r.set("ctl.submit_self_ns_per_unit", perUnit(layerCtlSubmit), "ns")
	r.set("ctl.completed_self_ns_per_unit", perUnit(layerCtlCompleted), "ns")
	r.set("ctl.submit_calls_per_unit", float64(tr.stats[layerCtlSubmit].calls)/u, "count")
	r.set("device.submit_self_ns_per_unit", perUnit(layerDevSubmit), "ns")
	r.set("blk.complete_self_ns_per_unit", perUnit(layerBlkComplete), "ns")
	r.set("core.issues", float64(obs.issued), "count")
	r.set("core.throttled_frac", float64(obs.throttled)/float64(obs.issued), "frac")
	setOverhead(r, median(untraced.rates), median(p.rates))

	ms, kb, err := timeNewMachine(func(i int) exp.MachineConfig {
		return exp.MachineConfig{Device: spec.choice(), Controller: spec.controller, Seed: o.seed + uint64(i)}
	})
	if err != nil {
		return err
	}
	r.set("exp.new_machine_ms", ms, "ms")
	r.set("exp.new_machine_alloc_kb", kb, "kB")
	return nil
}

// issueObserver counts issues, and those made outside the issued bio's
// own Controller.Submit call: bios the controller held back.
type issueObserver struct {
	submitting *bio.Bio
	issued     uint64
	throttled  uint64
}

func (o *issueObserver) OnSubmit(*bio.Bio)   {}
func (o *issueObserver) OnDispatch(*bio.Bio) {}
func (o *issueObserver) OnComplete(*bio.Bio) {}
func (o *issueObserver) OnIssue(b *bio.Bio) {
	o.issued++
	if b != o.submitting {
		o.throttled++
	}
}

// tracedController times Submit and Completed and tells the observer
// which bio is being submitted.
type tracedController struct {
	blk.Controller
	tr  *tracer
	obs *issueObserver
}

func (c *tracedController) Submit(b *bio.Bio) {
	c.tr.begin(layerCtlSubmit)
	prev := c.obs.submitting
	c.obs.submitting = b
	c.Controller.Submit(b)
	c.obs.submitting = prev
	c.tr.end()
}

func (c *tracedController) Completed(b *bio.Bio) {
	c.tr.begin(layerCtlCompleted)
	c.Controller.Completed(b)
	c.tr.end()
}

// tracedDevice times Submit and the completion callback it is handed.
type tracedDevice struct {
	device.Device
	tr *tracer
	// done wraps the completion callback. blk hands the device the same
	// callback on every Submit, so it is wrapped once rather than per bio.
	done func(*bio.Bio)
}

func (d *tracedDevice) Submit(b *bio.Bio, done func(*bio.Bio)) {
	if d.done == nil {
		d.done = func(b *bio.Bio) {
			d.tr.begin(layerBlkComplete)
			done(b)
			d.tr.end()
		}
	}
	d.tr.begin(layerDevSubmit)
	d.Device.Submit(b, d.done)
	d.tr.end()
}

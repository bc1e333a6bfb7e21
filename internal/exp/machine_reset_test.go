package exp

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/check"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
	"github.com/iocost-sim/iocost/internal/workload"
)

// dispatchObs folds every dispatch and completion into an FNV-1a hash, the
// way the ctl golden dispatch hashes do.
type dispatchObs struct {
	eng *sim.Engine
	h   uint64
	n   int
}

func (o *dispatchObs) fold(v uint64) {
	for i := 0; i < 8; i++ {
		o.h ^= (v >> (8 * i)) & 0xff
		o.h *= 1099511628211
	}
}

func (o *dispatchObs) OnSubmit(*bio.Bio) {}
func (o *dispatchObs) OnIssue(*bio.Bio)  {}
func (o *dispatchObs) OnDispatch(b *bio.Bio) {
	o.fold(uint64(o.eng.Now()))
	o.fold(b.Seq)
	o.n++
}
func (o *dispatchObs) OnComplete(b *bio.Bio) {
	o.fold(uint64(o.eng.Now()))
	o.fold(b.Seq | 1<<63)
	o.fold(uint64(b.Status))
}

// runHashed drives m with two competing open-loop replayers for d and
// returns the dispatch hash, the dispatch count and the trace length.
func runHashed(m *Machine, d sim.Time) (uint64, int, uint64) {
	o := &dispatchObs{eng: m.Eng, h: 14695981039346656037}
	m.Q.AddObserver(o)
	hi := m.Workload.NewChild("hi", 800)
	lo := m.Workload.NewChild("lo", 100)
	workload.NewReplayer(m.Q, hi, workload.DemandProfile{
		ReadBps: 60e6, WriteBps: 20e6, ReadRandFrac: 0.8, WriteRandFrac: 0.3,
	}, 0, 11).Start()
	workload.NewReplayer(m.Q, lo, workload.DemandProfile{
		ReadBps: 400e6, WriteBps: 150e6, ReadRandFrac: 0.5, WriteRandFrac: 0.1, IOSize: 64 << 10,
	}, 16<<30, 12).Start()
	m.Run(m.Eng.Now() + d)
	var traced uint64
	if m.Trace != nil {
		traced = m.Trace.Total()
	}
	return o.h, o.n, traced
}

// resetConfigs is every controller on an SSD, an HDD and a remote volume,
// plus one machine with faults (a device hang long enough to time bios out,
// leaving the block layer holding them for their late completions), a
// short retry deadline and a trace recorder.
func resetConfigs() []MachineConfig {
	hdd, remote := device.EvalHDD(), device.EBSgp3()
	var cfgs []MachineConfig
	for _, dev := range []DeviceChoice{ssdChoice(device.OlderGenSSD()), {HDD: &hdd}, {Remote: &remote}} {
		for _, kind := range AllKinds() {
			cfgs = append(cfgs, MachineConfig{Device: dev, Controller: kind, Seed: 3})
		}
	}
	return append(cfgs, MachineConfig{
		Device: ssdChoice(device.NewerGenSSD()), Controller: KindIOCost, Seed: 4,
		Trace: true,
		Faults: fault.Plan{Episodes: []fault.Episode{
			{Kind: fault.Stall, At: 40 * sim.Millisecond, Dur: 120 * sim.Millisecond},
			{Kind: fault.Error, At: 200 * sim.Millisecond, Dur: 100 * sim.Millisecond, Rate: 0.05},
		}},
		Retry: &blk.RetryPolicy{Deadline: 30 * sim.Millisecond},
	})
}

// TestMachineResetMatchesFresh: one machine, reset from config to config
// while its previous run still has IO in flight and events pending, runs
// every configuration exactly as a fresh MustNewMachine does.
func TestMachineResetMatchesFresh(t *testing.T) {
	const d = 300 * sim.Millisecond
	cfgs := resetConfigs()
	m := MustNewMachine(cfgs[len(cfgs)-1])
	runHashed(m, d)
	for _, cfg := range cfgs {
		if err := m.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		name := m.Dev.Name() + "/" + m.Ctl.Name()
		if m.Eng.Now() != 0 || m.Eng.EventsRun() != 0 {
			t.Errorf("%s: reset engine at %v with %d events run", name, m.Eng.Now(), m.Eng.EventsRun())
		}
		got, n, gotTrace := runHashed(m, d)
		want, wantN, wantTrace := runHashed(MustNewMachine(cfg), d)
		if n == 0 {
			t.Fatalf("%s: no dispatches", name)
		}
		if got != want || n != wantN || gotTrace != wantTrace {
			t.Errorf("%s: reset machine hash %#x (%d dispatches, %d traced), fresh %#x (%d, %d)",
				name, got, n, gotTrace, want, wantN, wantTrace)
		}
	}
}

// TestMachineResetRejectsForeignEngine: Reset never rebuilds a machine
// onto an engine it does not own, nor resets a shared engine a machine was
// built on, and a rejected config leaves the machine as it was.
func TestMachineResetRejectsForeignEngine(t *testing.T) {
	cfg := MachineConfig{Device: ssdChoice(device.OlderGenSSD()), Controller: KindIOCost}
	m := MustNewMachine(cfg)
	q := m.Q
	cfg.Engine = sim.New()
	if err := m.Reset(cfg); err == nil {
		t.Error("Reset onto a foreign engine succeeded")
	}
	if err := m.Reset(MachineConfig{}); err == nil {
		t.Error("Reset with no device succeeded")
	}
	if m.Q != q {
		t.Error("a rejected Reset changed the machine")
	}
	cfg.Engine = m.Eng
	if err := m.Reset(cfg); err != nil {
		t.Errorf("Reset onto the machine's own engine: %v", err)
	}

	// Two machines on one engine: neither may reset it, whether the
	// config names the shared engine or none.
	shared := sim.New()
	cfg.Engine = shared
	a, b := MustNewMachine(cfg), MustNewMachine(cfg)
	a.Run(5 * sim.Millisecond)
	pending := shared.Pending()
	for _, c := range []*sim.Engine{nil, shared} {
		cfg.Engine = c
		if err := a.Reset(cfg); err == nil {
			t.Errorf("Reset of a machine on a shared engine (cfg.Engine %v) succeeded", c)
		}
	}
	if err := a.Retire(); err == nil {
		t.Error("Retire of a machine on a shared engine succeeded")
	}
	if shared.Pending() != pending || shared.Now() == 0 || a.Q == nil || b.Q == nil {
		t.Error("a rejected Reset or Retire touched the shared engine or its machines")
	}
}

// leafObserver is a queue observer with no pointers: a leaf that stays
// reachable exactly as long as the queue it observes. It is too big for
// the tiny allocator, whose shared blocks can keep a finalizer from ever
// running.
type leafObserver struct{ _ [64]byte }

func (*leafObserver) OnSubmit(*bio.Bio)   {}
func (*leafObserver) OnIssue(*bio.Bio)    {}
func (*leafObserver) OnDispatch(*bio.Bio) {}
func (*leafObserver) OnComplete(*bio.Bio) {}

// TestMachineResetCollectsRetired is the leak pin: the engine's event
// blocks, the bio pool and the queue's latency sketches outlive every
// Reset, so a pending event or a pooled bio still pointing into the old
// stack would keep each retired machine reachable. Finalizers go on
// leaves (an object in a reference cycle, like a controller and the queue
// it is attached to, is never finalized): an observer of the retired
// queue, reachable as long as the queue, its controller or its device is,
// and each replayer's stats, reachable as long as a pending arrival or an
// in-flight bio is. The last cycle retires without rebuilding.
func TestMachineResetCollectsRetired(t *testing.T) {
	const cycles = 8
	cfg := MachineConfig{Device: ssdChoice(device.OlderGenSSD()), Controller: KindIOCost, Seed: 5}
	m := MustNewMachine(cfg)
	var collected atomic.Int32
	count := func(*stats.Histogram) { collected.Add(1) }
	countObs := func(*leafObserver) { collected.Add(1) }
	for i := 0; i < cycles; i++ {
		w := workload.NewReplayer(m.Q, m.Workload.NewChild("w", 100), workload.DemandProfile{
			ReadBps: 500e6, WriteBps: 100e6, ReadRandFrac: 0.5,
		}, 0, uint64(i))
		w.Start()
		m.Run(20 * sim.Millisecond)
		if m.Q.InFlight() == 0 || m.Eng.Pending() == 0 {
			t.Fatal("nothing in flight to retire")
		}
		obs := new(leafObserver)
		m.Q.AddObserver(obs)
		runtime.SetFinalizer(obs, countObs)
		runtime.SetFinalizer(w.ReadStats.Latency, count)
		// The last cycle only retires the machine, as a fleet host does
		// before listing it for reuse: that alone must let go of the run.
		step := func() error { return m.Reset(cfg) }
		if i == cycles-1 {
			step = m.Retire
		}
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < 2*cycles {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d retired queues and replayers still reachable after %d resets",
				2*cycles-int(collected.Load()), 2*cycles, cycles)
		}
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	runtime.KeepAlive(m)
}

// allocatedPerCall reports the bytes f allocates per call, averaged over
// rounds calls.
func allocatedPerCall(rounds int, f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < rounds; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return (b.TotalAlloc - a.TotalAlloc) / uint64(rounds)
}

// TestMachineResetAllocatesLittle: a reset keeps the engine and the pool's
// bios, so it allocates only the per-build objects (device, controller,
// queue, hierarchy), and at least a whole engine less than a fresh build.
func TestMachineResetAllocatesLittle(t *testing.T) {
	if check.Enabled {
		t.Skip("the sanitizer wrapper allocates its own bookkeeping per build")
	}
	const rounds = 20
	cfg := MachineConfig{Device: ssdChoice(device.NewerGenSSD()), Controller: KindIOCost, Seed: 6}
	m := MustNewMachine(cfg)
	runHashed(m, 50*sim.Millisecond)
	fresh := allocatedPerCall(rounds, func() { MustNewMachine(cfg) })
	reset := allocatedPerCall(rounds, func() {
		if err := m.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	})
	engine := uint64(unsafe.Sizeof(sim.Engine{}))
	t.Logf("per build: fresh %d B, reset %d B, engine %d B", fresh, reset, engine)
	if reset > 20_000 {
		t.Errorf("reset allocates %d B per build, want at most 20 kB", reset)
	}
	if fresh < reset+engine {
		t.Errorf("fresh build allocates %d B, reset %d B: want the reset to save at least the %d B engine", fresh, reset, engine)
	}
}

// TestEngineFootprint pins the size of an engine and of a fresh machine:
// every experiment builds one engine per machine, so the engine's arrays
// are most of what a fresh build allocates.
func TestEngineFootprint(t *testing.T) {
	if check.Enabled {
		t.Skip("the sanitizer wrapper allocates its own bookkeeping per build")
	}
	engine := unsafe.Sizeof(sim.Engine{})
	cfg := MachineConfig{Device: ssdChoice(device.NewerGenSSD()), Controller: KindIOCost, Seed: 6}
	fresh := allocatedPerCall(20, func() { MustNewMachine(cfg) })
	t.Logf("engine %d B, fresh machine %d B", engine, fresh)
	if engine > 48<<10 {
		t.Errorf("sim.Engine is %d B, want at most 48 KiB", engine)
	}
	if fresh > 80_000 {
		t.Errorf("a fresh machine allocates %d B, want at most 80 kB", fresh)
	}
}

package scenario

import (
	"runtime"
	"testing"

	"github.com/iocost-sim/iocost/internal/check"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
	"github.com/iocost-sim/iocost/internal/workload"
)

// takeRetired empties the retired-machine free list and returns what it
// held.
func takeRetired() []*exp.Machine {
	retired.Lock()
	defer retired.Unlock()
	free := retired.free
	retired.free = nil
	return free
}

// dirtyMachine is a machine stopped mid-run, to be retired with IO in
// flight and events pending, on a device and controller no fleet host of
// the test draws.
func dirtyMachine(seed uint64) *exp.Machine {
	hdd := device.EvalHDD()
	m := exp.MustNewMachine(exp.MachineConfig{Device: exp.DeviceChoice{HDD: &hdd}, Controller: exp.KindMQDL, Seed: seed})
	workload.NewReplayer(m.Q, m.Workload.NewChild("w", 100), workload.DemandProfile{
		ReadBps: 50e6, WriteBps: 20e6, ReadRandFrac: 0.9,
	}, 0, seed).Start()
	m.Run(30 * sim.Millisecond)
	return m
}

// freshHost empties the free list before every tick, so its host never
// inherits a machine.
type freshHost struct{ fleet.HostModel }

func (h freshHost) Tick(env fleet.HostTickEnv, acc *fleet.Summary) fleet.HostTickResult {
	takeRetired()
	return h.HostModel.Tick(env, acc)
}

// TestFleetHostsReuseRetiredMachines: full-fidelity hosts hand their
// machines on after their last tick, so a serial run leaves exactly one
// machine on the free list, and a run whose hosts inherit reset machines —
// even ones retired mid-run on another device and controller — produces
// the same bytes as one where every host builds its own, at any worker
// count.
func TestFleetHostsReuseRetiredMachines(t *testing.T) {
	defer takeRetired()
	cfg := fleet.ClusterConfig{
		Hosts: 24, RackSize: 8, ShardRacks: 1, Ticks: 3, TickDur: sim.Second,
		OpsPerHostTick: 4, Seed: 0x5eed, Kind: fleet.ContainerCleanup,
		Migration: &fleet.MigrationWave{StartTick: 1, Ticks: 2},
		Fidelity:  fleet.Fidelity{Mode: fleet.FidelityFull, Machine: NewFleetHost},
	}
	run := func(workers int) string {
		cfg.Workers = workers
		s, err := fleet.RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Format()
	}

	// The reference: every host builds a fresh machine, because the free
	// list is emptied before each of its ticks.
	cfg.Fidelity.Machine = func(spec fleet.HostSpec) fleet.HostModel {
		return freshHost{NewFleetHost(spec)}
	}
	want := run(1)
	cfg.Fidelity.Machine = NewFleetHost

	takeRetired()
	if got := run(1); got != want {
		t.Errorf("hosts handing machines on:\n%s\nfresh machines:\n%s", got, want)
	}
	if n := len(takeRetired()); n != 1 {
		t.Errorf("serial run left %d machines on the free list, want 1 handed from host to host", n)
	}

	for _, workers := range []int{1, 4} {
		for i := 0; i < 3; i++ {
			retire(dirtyMachine(uint64(i + 1)))
		}
		if got := run(workers); got != want {
			t.Errorf("workers=%d, hosts on retired machines:\n%s\nfresh machines:\n%s", workers, got, want)
		}
		if n := len(takeRetired()); n < 1 || n > maxRetiredMachines {
			t.Errorf("workers=%d: %d machines on the free list, want 1..%d", workers, n, maxRetiredMachines)
		}
	}

	for i := 0; i < maxRetiredMachines+2; i++ {
		retire(dirtyMachine(uint64(i + 1)))
	}
	if n := len(takeRetired()); n != maxRetiredMachines {
		t.Errorf("free list holds %d machines, want its bound %d", n, maxRetiredMachines)
	}
}

// TestWarmFleetHostTickAllocatesLittle is the allocation pin of a full
// host's tick: once a host has run a few ticks, a tick reuses its
// replayers, their stats, its probe states and its machine, so it
// allocates nothing but bio-pool growth. Each bio the pool adds is
// allowed 160 B: its 128 B plus the slab's size-class rounding and the
// slab list's growth.
func TestWarmFleetHostTickAllocatesLittle(t *testing.T) {
	if check.Enabled {
		t.Skip("the sanitizer wrapper allocates its own bookkeeping per bio")
	}
	const warm, measured = 3, 8
	h := NewFleetHost(fleet.HostSpec{
		Seed: 0x5eed, Host: 3, Kind: fleet.ContainerCleanup,
		Ticks: warm + measured + 1, TickDur: sim.Second,
		OpsPerHostTick: 20, Window: 250 * sim.Millisecond,
	}).(*fleetHost)
	acc := &fleet.Summary{Latency: stats.NewHistogram()}
	tick := 0
	run := func() {
		h.Tick(fleet.HostTickEnv{Tick: tick, StormLatMult: 1}, acc)
		tick++
	}
	for tick < warm {
		run()
	}
	bios := h.m.Q.BioPool().Allocated()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for tick < warm+measured {
		run()
	}
	runtime.ReadMemStats(&b)
	grown := int64(h.m.Q.BioPool().Allocated() - bios)
	total := int64(b.TotalAlloc - a.TotalAlloc)
	perTick := (total - 160*grown) / measured
	t.Logf("%d ticks allocated %d B with %d new bios: %d B per tick beside them", measured, total, grown, perTick)
	if perTick > 2048 {
		t.Errorf("a warm full host's tick allocates %d B beside bio-pool growth, want at most 2 KB", perTick)
	}
}

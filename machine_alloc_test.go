// Whole-stack allocation pin: with bio pooling, pending pooling, and the
// event free list in place, the steady-state submit → dispatch → complete →
// resubmit cycle must not allocate at all. This is the bio-path counterpart
// of the engine alloc pins in internal/sim. The open-loop Replayer is pinned
// too: its arrival → submit → reschedule cycle must be as allocation-free as
// the closed-loop workloads.
package iocost_test

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/check"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/flight"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

func TestSteadyStateZeroAllocs(t *testing.T) {
	steadyStateZeroAllocs(t, nil)
}

// TestSteadyStateZeroAllocsFlight re-runs the pin with the flight recorder
// armed: the always-on black box (small ring so it wraps during warm-up,
// trigger checks every 5ms) must cost literally nothing per bio once the
// ring reaches capacity.
func TestSteadyStateZeroAllocsFlight(t *testing.T) {
	steadyStateZeroAllocs(t, &flight.Config{
		Cap:        1 << 12,
		CheckEvery: 5 * sim.Millisecond,
	})
}

// TestReplayerZeroAllocs pins the open-loop path: once warm, a profile
// Replayer driving both directions must not allocate per arrival.
func TestReplayerZeroAllocs(t *testing.T) {
	if check.Enabled {
		t.Skip("sanitizer wrappers keep their own bookkeeping; alloc pin runs unsanitized")
	}
	spec := device.NullSSD()
	m := exp.MustNewMachine(exp.MachineConfig{
		Device:     exp.DeviceChoice{SSD: &spec},
		Controller: exp.KindNone,
		Seed:       42,
	})
	r := workload.NewReplayer(m.Q, m.Workload.NewChild("r", 100), workload.DemandProfile{
		Name: "r", ReadBps: 400e6, WriteBps: 150e6, ReadRandFrac: 0.7, WriteRandFrac: 0.3,
	}, 0, 1)
	r.Start()

	deadline := 100 * sim.Millisecond
	m.Run(deadline)

	allocs := testing.AllocsPerRun(10, func() {
		deadline += 10 * sim.Millisecond
		m.Run(deadline)
	})
	if allocs != 0 {
		t.Errorf("steady-state open-loop replay allocates %.1f per 10ms window, want 0", allocs)
	}
	if r.ReadStats.Done == 0 || r.WriteStats.Done == 0 {
		t.Fatal("replayer completed nothing; the pin measured nothing")
	}
}

func steadyStateZeroAllocs(t *testing.T, fc *flight.Config) {
	if check.Enabled {
		t.Skip("sanitizer wrappers keep their own bookkeeping; alloc pin runs unsanitized")
	}
	spec := device.NullSSD()
	m := exp.MustNewMachine(exp.MachineConfig{
		Device:     exp.DeviceChoice{SSD: &spec},
		Controller: exp.KindNone,
		Seed:       42,
		Flight:     fc,
	})
	a := m.Workload.NewChild("a", 100)
	c := m.Workload.NewChild("b", 200)
	wa := workload.NewSaturator(m.Q, workload.SaturatorConfig{
		CG: a, Op: bio.Read, Pattern: workload.Random, Size: 4096, Depth: 32, Seed: 1,
	})
	wc := workload.NewSaturator(m.Q, workload.SaturatorConfig{
		CG: c, Op: bio.Write, Pattern: workload.Sequential, Size: 4096, Depth: 8,
		Region: 32 << 30, Seed: 2,
	})
	wa.Start()
	wc.Start()

	// Warm-up: grow the bio pool, pending free lists, ring buffers, and
	// event pool to their steady-state footprint.
	deadline := 50 * sim.Millisecond
	m.Run(deadline)

	allocs := testing.AllocsPerRun(10, func() {
		deadline += 10 * sim.Millisecond
		m.Run(deadline)
	})
	if allocs != 0 {
		t.Errorf("steady-state submit→complete path allocates %.1f per 10ms window, want 0", allocs)
	}
	if done := wa.Stats.Done + wc.Stats.Done; done == 0 {
		t.Fatal("no bios completed; the pin measured nothing")
	}
}

// Allocation pins for the fleet's outcome path: RunCluster must allocate
// nothing per outcome host and nothing per shard beyond its bounded pool of
// recycled shard summaries, so a round's garbage does not grow with the
// fleet. TestClusterBoundedMemory bounds what a run retains; these bound
// what it churns.
package fleet_test

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/check"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/sim"
)

// stubMachine is an allocation-free full-fidelity host: it stands in for
// scenario.NewFleetHost so the sampled pin measures the fleet's own
// bookkeeping, not the cost of building real machines.
type stubMachine struct{}

func stubFactory(fleet.HostSpec) fleet.HostModel { return stubMachine{} }

func (stubMachine) Tick(env fleet.HostTickEnv, acc *fleet.Summary) fleet.HostTickResult {
	const lat = 40 * int64(sim.Millisecond)
	for op := 0; op < 10; op++ {
		acc.Latency.Observe(lat)
		acc.Calib.PerTick[env.Tick].Full.Observe(lat)
	}
	return fleet.HostTickResult{Pressure: 0.5, Ops: 10}
}

// allocConfig is a serial cluster exercising every per-host code path:
// migration, push, a storm on rack 0 and sampled flight recorders.
func allocConfig(hosts int, fid fleet.Fidelity) fleet.ClusterConfig {
	return fleet.ClusterConfig{
		Hosts: hosts, RackSize: 32, ShardRacks: 8, Ticks: 4, TickDur: sim.Second,
		OpsPerHostTick: 10, Seed: 5, Kind: fleet.PackageFetch, Workers: 1,
		Migration: &fleet.MigrationWave{StartTick: 0, Ticks: 4},
		Push:      &fleet.ConfigPush{StartTick: 1, CanaryFrac: 0.1, RampTicks: 2, FailFactor: 0.8, LatFactor: 0.9},
		Storms: []fleet.FaultStorm{{Racks: []int{0}, Plan: fault.Plan{Episodes: []fault.Episode{
			{Kind: fault.Slow, At: sim.Second, Dur: sim.Second, Factor: 4}}}}},
		Flight:   &fleet.FleetFlight{SampleFrac: 0.01},
		Fidelity: fid,
	}
}

// TestClusterAllocsPerHost runs the same cluster at 2,048 and 32,768 hosts
// (8 and 128 shards): the 16x bigger fleet may cost at most one extra
// allocation per extra shard, so nothing is allocated per host.
func TestClusterAllocsPerHost(t *testing.T) {
	if check.Enabled {
		t.Skip("sanitizer wrappers keep their own bookkeeping; alloc pin runs unsanitized")
	}
	for _, tc := range []struct {
		name string
		fid  fleet.Fidelity
	}{
		{"outcome", fleet.Fidelity{}},
		{"sampled", fleet.Fidelity{Mode: fleet.FidelitySampled, SampleFrac: 0.01, Machine: stubFactory}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const small, big = 2048, 32768
			shards := func(hosts int) int { return hosts / (32 * 8) }
			allocs := func(hosts int) float64 {
				cfg := allocConfig(hosts, tc.fid)
				return testing.AllocsPerRun(2, func() {
					if s := mustRun(t, cfg); s.Hosts != hosts {
						t.Fatalf("summary covers %d hosts, want %d", s.Hosts, hosts)
					}
				})
			}
			a, b := allocs(small), allocs(big)
			extraShards := shards(big) - shards(small)
			if extra := b - a; extra > float64(extraShards) {
				t.Errorf("%d hosts: %.0f allocs, %d hosts: %.0f allocs: %.0f extra for %d extra shards (%.2f per extra host), want at most one per extra shard",
					small, a, big, b, extra, extraShards, extra/float64(big-small))
			}
		})
	}
}

// BenchmarkRunClusterOutcome measures one outcome-only serial round of
// 32,768 hosts; allocs/op must stay flat as the fleet grows.
func BenchmarkRunClusterOutcome(b *testing.B) {
	cfg := allocConfig(32768, fleet.Fidelity{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.RunCluster(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

package fleet

import (
	"reflect"
	"testing"

	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/sim"
)

// observingHost is a full-fidelity stand-in that fills every Calib sketch.
type observingHost struct{}

func (observingHost) Tick(env HostTickEnv, acc *Summary) HostTickResult {
	lat := int64(env.Tick+1) * int64(sim.Second)
	acc.Latency.Observe(lat)
	acc.Calib.PerTick[env.Tick].Full.Observe(lat)
	acc.Calib.Protected.Observe(lat / 3)
	acc.Calib.BestEffort.Observe(lat / 2)
	return HostTickResult{Pressure: 0.5, Ops: 1, HealthyFails: 1}
}

// TestSummaryResetMatchesFresh: a shard summary that ran a shard and was
// reset is indistinguishable from newSummary's — every counter, sketch
// (bucket arrays, moments, extrema, Observe memo) and list — which is what
// lets RunCluster recycle summaries without moving a byte.
func TestSummaryResetMatchesFresh(t *testing.T) {
	cfg := ClusterConfig{
		Hosts: 512, RackSize: 32, ShardRacks: 8, Ticks: 4, TickDur: sim.Second,
		Seed: 9, Migration: &MigrationWave{Ticks: 4},
		Push: &ConfigPush{StartTick: 1, CanaryFrac: 0.2, RampTicks: 1, FailFactor: 2, LatFactor: 1},
		Storms: []FaultStorm{{Racks: []int{1}, Plan: fault.Plan{Episodes: []fault.Episode{
			{Kind: fault.Error, At: sim.Second, Dur: sim.Second, Rate: 0.5}}}}},
		Flight: &FleetFlight{SampleFrac: 1, FailCeil: 0.1, MaxIncidents: 3},
		Fidelity: Fidelity{Mode: FidelitySampled, SampleFrac: 0.1,
			Machine: func(HostSpec) HostModel { return observingHost{} }},
	}.withDefaults()
	topo := Topology{Hosts: cfg.Hosts, RackSize: cfg.RackSize}

	acc := newSummary(cfg)
	runShard(&cfg, topo, 0, acc)
	if acc.Hosts == 0 || acc.Latency.Count() == 0 || acc.FlightDropped == 0 ||
		acc.Calib.FullHosts == 0 || acc.Calib.Protected.Count() == 0 {
		t.Fatalf("shard left fields untouched (hosts=%d lat_n=%d dropped=%d full=%d); the reset check would be vacuous",
			acc.Hosts, acc.Latency.Count(), acc.FlightDropped, acc.Calib.FullHosts)
	}
	acc.reset()
	if len(acc.FlightIncidents) != 0 {
		t.Fatalf("reset kept %d incidents", len(acc.FlightIncidents))
	}
	acc.FlightIncidents = nil // a fresh summary has no backing array yet
	if fresh := newSummary(cfg); !reflect.DeepEqual(acc, fresh) {
		t.Errorf("reset summary differs from a fresh one:\n reset: %+v\n fresh: %+v", acc, fresh)
	}
}

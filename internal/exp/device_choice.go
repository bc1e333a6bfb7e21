package exp

import (
	"fmt"
	"sort"
	"strings"

	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/tune"
)

// Device family names returned by DeviceChoice.Kind.
const (
	DeviceSSD    = "ssd"
	DeviceHDD    = "hdd"
	DeviceRemote = "remote"
)

// Kind returns which device family the choice selects — DeviceSSD,
// DeviceHDD or DeviceRemote — or "" when nothing is set. Callers that
// previously fingered the three spec pointers directly should switch on
// this instead.
func (c DeviceChoice) Kind() string {
	switch {
	case c.SSD != nil:
		return DeviceSSD
	case c.HDD != nil:
		return DeviceHDD
	case c.Remote != nil:
		return DeviceRemote
	}
	return ""
}

// Spec returns the selected spec (*device.SSDSpec, *device.HDDSpec or
// *device.RemoteSpec), or nil when nothing is set.
func (c DeviceChoice) Spec() any {
	switch {
	case c.SSD != nil:
		return c.SSD
	case c.HDD != nil:
		return c.HDD
	case c.Remote != nil:
		return c.Remote
	}
	return nil
}

// IOCostConfig is the iocost config a machine on this device runs by
// default: the ideal-profiling cost model and the hand-tuned QoS, both
// derived by internal/tune. It panics on an empty choice.
func (c DeviceChoice) IOCostConfig() core.Config {
	dev := tune.Scenario{SSD: c.SSD, HDD: c.HDD, Remote: c.Remote}
	return core.Config{Model: core.MustLinearModel(dev.Model()), QoS: dev.HandTuned()}
}

// New constructs the chosen device model on eng with the given noise seed.
// It panics on an empty choice; validate through MachineConfig.Validate
// (or check Kind) first.
func (c DeviceChoice) New(eng *sim.Engine, seed uint64) device.Device {
	switch {
	case c.SSD != nil:
		return device.NewSSD(eng, *c.SSD, seed)
	case c.HDD != nil:
		return device.NewHDD(eng, *c.HDD, seed)
	case c.Remote != nil:
		return device.NewRemote(eng, *c.Remote, seed)
	}
	panic("exp: DeviceChoice.New on empty choice")
}

// deviceCatalog maps every named device model to its choice: the three
// evaluation SSDs, the spinning disk, the null device, the Figure 3 fleet
// SSDs A–H, and the cloud volumes. This is the single vocabulary behind
// every -device flag; the per-cmd switch blocks it replaced are gone.
func deviceCatalog() map[string]DeviceChoice {
	m := map[string]DeviceChoice{
		"older-gen":  ssdChoice(device.OlderGenSSD()),
		"newer-gen":  ssdChoice(device.NewerGenSSD()),
		"enterprise": ssdChoice(device.EnterpriseSSD()),
		"null":       ssdChoice(device.NullSSD()),
	}
	hdd := device.EvalHDD()
	m["hdd"] = DeviceChoice{HDD: &hdd}
	for _, n := range device.FleetSSDNames() {
		spec, err := device.FleetSSDSpec(n)
		if err != nil {
			panic(err)
		}
		m[n] = ssdChoice(spec)
	}
	remote := func(spec device.RemoteSpec) DeviceChoice { return DeviceChoice{Remote: &spec} }
	m["ebs-gp3"] = remote(device.EBSgp3())
	m["ebs-io2"] = remote(device.EBSio2())
	m["gcp-balanced"] = remote(device.GCPBalanced())
	m["gcp-ssd"] = remote(device.GCPSSD())
	return m
}

// ParseDevice resolves a device model name (see DeviceNames) to its
// DeviceChoice. Unknown names return an error listing the vocabulary.
func ParseDevice(name string) (DeviceChoice, error) {
	if c, ok := deviceCatalog()[name]; ok {
		return c, nil
	}
	return DeviceChoice{}, fmt.Errorf("exp: unknown device %q (have: %s)",
		name, strings.Join(DeviceNames(), ", "))
}

// DeviceNames lists every name ParseDevice accepts, sorted.
func DeviceNames() []string {
	cat := deviceCatalog()
	names := make([]string, 0, len(cat))
	for n := range cat {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fleetDeviceNames is the per-host device population full-fidelity fleet
// hosts draw from: the three evaluation SSDs plus the Figure 3 fleet SSDs,
// in a fixed order (a draw is an index into this slice, so the population
// must never depend on map iteration).
var fleetDeviceNames = []string{
	"older-gen", "newer-gen", "enterprise",
	"A", "B", "C", "D", "E", "F", "G", "H",
}

// FleetHostDevice draws one host's device model for the fleet simulation:
// uniform over the eleven SSD models a datacenter actually mixes (Figure
// 3's A–H plus the three evaluation SSDs). Consumes exactly one draw.
func FleetHostDevice(r *rng.Source) DeviceChoice {
	name := fleetDeviceNames[r.Intn(len(fleetDeviceNames))]
	c, err := ParseDevice(name)
	if err != nil {
		panic(err)
	}
	return c
}

// FleetHostController draws the legacy (pre-migration) controller for one
// fleet host: mostly io.latency — the fleet the paper migrated away from —
// with a minority of the other cgroup-aware mechanisms. Consumes exactly
// one draw; migrated hosts run KindIOCost regardless.
func FleetHostController(r *rng.Source) string {
	switch d := r.Intn(10); {
	case d < 6:
		return KindIOLatency
	case d < 8:
		return KindBFQ
	case d < 9:
		return KindThrottle
	default:
		return KindKyber
	}
}

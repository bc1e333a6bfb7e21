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

// deviceCatalog names every device model beside the Figure 3 fleet SSDs
// A–H, which device.FleetSSDSpec resolves: the three evaluation SSDs, the
// spinning disk, the null device and the cloud volumes. With the fleet
// SSDs it is the single vocabulary behind every -device flag; the per-cmd
// switch blocks it replaced are gone. Each entry builds its spec only when
// its name is looked up.
var deviceCatalog = []struct {
	name   string
	choice func() DeviceChoice
}{
	{"older-gen", func() DeviceChoice { return ssdChoice(device.OlderGenSSD()) }},
	{"newer-gen", func() DeviceChoice { return ssdChoice(device.NewerGenSSD()) }},
	{"enterprise", func() DeviceChoice { return ssdChoice(device.EnterpriseSSD()) }},
	{"null", func() DeviceChoice { return ssdChoice(device.NullSSD()) }},
	{"hdd", func() DeviceChoice { hdd := device.EvalHDD(); return DeviceChoice{HDD: &hdd} }},
	{"ebs-gp3", func() DeviceChoice { return remoteChoice(device.EBSgp3()) }},
	{"ebs-io2", func() DeviceChoice { return remoteChoice(device.EBSio2()) }},
	{"gcp-balanced", func() DeviceChoice { return remoteChoice(device.GCPBalanced()) }},
	{"gcp-ssd", func() DeviceChoice { return remoteChoice(device.GCPSSD()) }},
}

func remoteChoice(spec device.RemoteSpec) DeviceChoice { return DeviceChoice{Remote: &spec} }

// ParseDevice resolves a device model name (see DeviceNames) to its
// DeviceChoice, building only that model's spec: every call returns specs
// of its own. Unknown names return an error listing the vocabulary.
func ParseDevice(name string) (DeviceChoice, error) {
	for _, d := range deviceCatalog {
		if d.name == name {
			return d.choice(), nil
		}
	}
	if spec, err := device.FleetSSDSpec(name); err == nil {
		return ssdChoice(spec), nil
	}
	return DeviceChoice{}, fmt.Errorf("exp: unknown device %q (have: %s)",
		name, strings.Join(DeviceNames(), ", "))
}

// DeviceNames lists every name ParseDevice accepts, sorted.
func DeviceNames() []string {
	names := device.FleetSSDNames()
	for _, d := range deviceCatalog {
		names = append(names, d.name)
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

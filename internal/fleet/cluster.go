// Cluster-scale fleet simulation: the datacenter the paper deployed to,
// not just the 2000-host Monte-Carlo region of Figs 18/19.
//
// The design scales three ways at once:
//
//   - Sharding. Hosts are grouped into racks and racks into fixed-size
//     shards; shards run across workers via fanout.ForEachN. The shard
//     layout depends only on the topology — never on the worker count — and
//     every shard merges into the running summary in shard-index order, so
//     a run is byte-identical at 1, 4, or 16 workers.
//
//   - Seed derivation. Every random decision derives from (fleet seed,
//     host ID) or (fleet seed, rack ID, tick) through its own tagged
//     stream: host workload draws, migration/push selection, and storm
//     severity never share a stream. Scheduling order therefore cannot
//     perturb results, and disabling a behavior (a fault storm) cannot
//     perturb the streams of the behaviors that remain.
//
//   - Streaming aggregation. No per-host state survives a shard: each
//     shard folds its hosts into one Summary (per-tick counters plus one
//     mergeable latency sketch, see stats.Histogram.Merge) and shards merge
//     into the accumulator in bounded batches. Memory is O(batch × summary
//     size), independent of host count — the property TestClusterBoundedMemory
//     and the fleet-smoke CI gate assert.
//
// On top of the sharded substrate sit the cluster behaviors the paper only
// gestures at: migration waves (IOLatency→IOCost, the Figs 18/19 sweep at
// datacenter scale), rolling config pushes with a canary fraction, and
// correlated fault storms sharing one fault.Plan across a rack.
package fleet

import (
	"fmt"
	"math"
	"strings"

	"github.com/iocost-sim/iocost/internal/fanout"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
)

// Topology lays hosts out into racks. Host IDs are 0..Hosts-1; rack r
// contains the contiguous ID range [r*RackSize, (r+1)*RackSize) clipped to
// the host count. All enumeration is by ascending ID — creation order by
// construction, never map iteration (the nondeterminism class PRs 1–4 kept
// finding elsewhere; TestRackEnumerationOrder pins it here).
type Topology struct {
	Hosts    int
	RackSize int
}

// Racks returns the number of racks.
func (t Topology) Racks() int { return (t.Hosts + t.RackSize - 1) / t.RackSize }

// RackOf returns the rack containing host h.
func (t Topology) RackOf(h int) int { return h / t.RackSize }

// RackHosts returns rack r's host ID range [lo, hi).
func (t Topology) RackHosts(r int) (lo, hi int) {
	lo = r * t.RackSize
	hi = min(lo+t.RackSize, t.Hosts)
	return lo, hi
}

// MigrationWave rolls the fleet from the old controller's failure curve to
// the new one: the migrated fraction ramps linearly from 0 at StartTick to
// 1 after Ticks ticks. Which hosts migrate first is a fixed per-host draw
// from the fleet seed, so membership is monotone (a migrated host never
// reverts) and independent of sharding.
type MigrationWave struct {
	StartTick int
	Ticks     int
}

// frac returns the migrated fraction at tick t.
func (w MigrationWave) frac(t int) float64 {
	if t < w.StartTick {
		return 0
	}
	if w.Ticks <= 1 {
		return 1
	}
	f := float64(t-w.StartTick+1) / float64(w.Ticks)
	return math.Min(f, 1)
}

// ConfigPush is a rolling QoS/config push: a canary fraction adopts the new
// configuration at StartTick, then the remainder ramps in over RampTicks.
// The new configuration multiplies IO-failure probability by FailFactor and
// op latency by LatFactor (a better-tuned QoS has factors < 1; a bad push
// has factors > 1 — the canary stage is how the fleet notices before the
// ramp).
type ConfigPush struct {
	StartTick  int
	CanaryFrac float64
	RampTicks  int
	FailFactor float64
	LatFactor  float64
}

// frac returns the pushed fraction at tick t: the canary at StartTick, then
// a linear ramp of the remainder.
func (p ConfigPush) frac(t int) float64 {
	if t < p.StartTick {
		return 0
	}
	if t == p.StartTick || p.RampTicks <= 0 {
		return p.CanaryFrac
	}
	ramp := math.Min(float64(t-p.StartTick)/float64(p.RampTicks), 1)
	return p.CanaryFrac + (1-p.CanaryFrac)*ramp
}

// FaultStorm applies one fault.Plan to every host of the listed racks: the
// correlated failure the paper's fleet maintenance stories describe (a bad
// firmware batch, a top-of-rack switch brownout). All hosts of a rack
// observe identical episode windows and identical rack-level severity;
// per-op failure draws come from each host's dedicated storm stream, which
// is separate from its healthy stream — disabling a storm (Disabled, or
// removing it) reproduces the healthy fleet byte-exactly.
type FaultStorm struct {
	// Racks lists affected racks in declaration order (a slice, not a
	// set: enumeration order is part of the determinism contract).
	Racks []int
	Plan  fault.Plan
	// Disabled keeps the storm in the config but injects nothing; the
	// stream-separation tests pin that this is byte-identical to the
	// storm never existing.
	Disabled bool
}

// FleetFlight samples a seed-derived subset of hosts with lightweight
// flight recorders: each sampled host watches its own per-tick outcomes and
// files a bounded FleetIncident when a storm first covers its rack or its
// failure fraction spikes. Sampling membership is a pure function of (fleet
// seed, host ID) — like migration order — so the sampled set, and therefore
// the incident list, is identical at every worker count.
type FleetFlight struct {
	// SampleFrac is the fraction of hosts sampled (0 disables).
	SampleFrac float64
	// FailCeil is the per-host per-tick failure fraction that triggers a
	// fail-spike incident (0 selects 0.5).
	FailCeil float64
	// MaxIncidents bounds retained incidents fleet-wide (0 selects 32);
	// further triggers count as dropped.
	MaxIncidents int
}

func (f *FleetFlight) withDefaults() *FleetFlight {
	d := *f
	if d.FailCeil == 0 {
		d.FailCeil = 0.5
	}
	if d.MaxIncidents == 0 {
		d.MaxIncidents = 32
	}
	return &d
}

// FleetIncident is one sampled-host trigger: the fleet-scale analogue of an
// incident bundle, bounded to what a 100k-host run can afford to retain.
type FleetIncident struct {
	Host     int     `json:"host"`
	Rack     int     `json:"rack"`
	Tick     int     `json:"tick"`
	Reason   string  `json:"reason"` // "storm-onset" or "fail-spike"
	FailFrac float64 `json:"fail_frac"`
	LatMult  float64 `json:"lat_mult"`
	Migrated bool    `json:"migrated"`
	Pushed   bool    `json:"pushed"`
}

// ClusterConfig parameterizes a cluster run.
type ClusterConfig struct {
	Hosts    int // default 1000
	RackSize int // default 32
	// ShardRacks is how many racks one shard simulates (default 8). The
	// shard layout is part of the result only through float-summation
	// order; it must never be derived from the worker count.
	ShardRacks int
	Ticks      int      // default 8
	TickDur    sim.Time // default 1 simulated hour
	// OpsPerHostTick is how many system-slice operations each host
	// performs per tick (default 20).
	OpsPerHostTick int
	Seed           uint64
	// Workers is the fan-out width (0 or 1 = serial). Summaries are
	// byte-identical for every value.
	Workers int

	Kind OpKind
	// Old and New are the failure-probability curves of the pre- and
	// post-migration controllers. Empty curves select DefaultCurves(Kind).
	Old, New Curve

	Migration *MigrationWave
	Push      *ConfigPush
	Storms    []FaultStorm

	// Flight, if non-nil with SampleFrac > 0, arms per-host sampled flight
	// recorders on a seed-derived subset of the fleet.
	Flight *FleetFlight

	// Fidelity selects which hosts run full machines instead of the
	// outcome model (see hostmodel.go); the zero value keeps every host
	// on the outcome model, byte-identical to historical runs.
	Fidelity Fidelity
}

// clusterBatch is the merge window: how many unmerged shard summaries may
// be retained at once. Fixed: the window bounds memory, it must not change
// results or depend on the worker count (merging stays in shard-index
// order regardless).
const clusterBatch = 64

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Hosts == 0 {
		c.Hosts = 1000
	}
	if c.RackSize == 0 {
		c.RackSize = 32
	}
	if c.ShardRacks == 0 {
		c.ShardRacks = 8
	}
	if c.Ticks == 0 {
		c.Ticks = 8
	}
	if c.TickDur == 0 {
		c.TickDur = 3600 * sim.Second
	}
	if c.OpsPerHostTick == 0 {
		c.OpsPerHostTick = 20
	}
	if len(c.Old.Pressures) == 0 {
		c.Old, _ = DefaultCurves(c.Kind)
	}
	if len(c.New.Pressures) == 0 {
		_, c.New = DefaultCurves(c.Kind)
	}
	if c.Flight != nil {
		c.Flight = c.Flight.withDefaults()
	}
	c.Fidelity = c.Fidelity.withDefaults()
	return c
}

// Validate checks the configuration (after defaulting) without running it.
func (c ClusterConfig) Validate() error {
	c = c.withDefaults()
	if c.Hosts < 0 || c.RackSize < 0 || c.ShardRacks < 0 || c.Ticks < 0 {
		return fmt.Errorf("fleet: negative cluster dimensions: hosts=%d rack=%d shardracks=%d ticks=%d",
			c.Hosts, c.RackSize, c.ShardRacks, c.Ticks)
	}
	if c.TickDur <= 0 {
		return fmt.Errorf("fleet: TickDur must be positive, got %v", c.TickDur)
	}
	if p := c.Push; p != nil {
		if p.CanaryFrac < 0 || p.CanaryFrac > 1 {
			return fmt.Errorf("fleet: push canary fraction %v outside [0,1]", p.CanaryFrac)
		}
		if p.FailFactor < 0 || p.LatFactor < 0 {
			return fmt.Errorf("fleet: push factors must be non-negative: fail=%v lat=%v", p.FailFactor, p.LatFactor)
		}
	}
	if err := c.Fidelity.validate(); err != nil {
		return err
	}
	if f := c.Flight; f != nil {
		if f.SampleFrac < 0 || f.SampleFrac > 1 {
			return fmt.Errorf("fleet: flight sample fraction %v outside [0,1]", f.SampleFrac)
		}
		if f.FailCeil < 0 || f.MaxIncidents < 0 {
			return fmt.Errorf("fleet: flight thresholds must be non-negative: fail=%v max=%d",
				f.FailCeil, f.MaxIncidents)
		}
	}
	topo := Topology{Hosts: c.Hosts, RackSize: c.RackSize}
	for i, s := range c.Storms {
		if err := s.Plan.Validate(); err != nil {
			return fmt.Errorf("fleet: storm %d: %w", i, err)
		}
		for _, r := range s.Racks {
			if r < 0 || r >= topo.Racks() {
				return fmt.Errorf("fleet: storm %d targets rack %d, topology has %d racks", i, r, topo.Racks())
			}
		}
	}
	return nil
}

// DefaultCurves returns canned failure-probability curves for the old
// (io.latency) and new (iocost) controllers, calibrated against the
// micro-simulation sweeps of Figs 18/19 (see EXPERIMENTS.md): io.latency
// starves the system slice once the main workload saturates the device, so
// its curve jumps toward 1 above ~90% pressure, while iocost's guaranteed
// hierarchy share keeps operations inside their deadlines at every
// pressure. The non-IO failure floor (network flakes, bad packages) is
// folded in. MeasureGrid regenerates these from live micro-sims.
func DefaultCurves(kind OpKind) (old, new_ Curve) {
	pressures := []float64{0.3, 0.6, 0.8, 0.88, 0.95, 1.02, 1.1}
	switch kind {
	case PackageFetch:
		old = Curve{Kind: kind, Pressures: pressures,
			FailProb: []float64{0.010, 0.013, 0.035, 0.13, 0.62, 0.97, 1.0}}
		new_ = Curve{Kind: kind, Pressures: pressures,
			FailProb: []float64{0.009, 0.0095, 0.010, 0.012, 0.015, 0.022, 0.04}}
	default:
		old = Curve{Kind: kind, Pressures: pressures,
			FailProb: []float64{0.058, 0.07, 0.12, 0.27, 0.71, 0.97, 1.0}}
		new_ = Curve{Kind: kind, Pressures: pressures,
			FailProb: []float64{0.055, 0.057, 0.061, 0.07, 0.085, 0.11, 0.16}}
	}
	return old, new_
}

// Stream tags: every per-host and per-rack stream derives from the fleet
// seed through its own tag so that streams never collide and behaviors stay
// separable (see rng.Derive).
const (
	hostStreamTag  = 0x705714c857_000001 // per-host workload draws
	hostMigrateTag = 0x705714c857_000002 // per-host migration order
	hostPushTag    = 0x705714c857_000003 // per-host push order
	stormRackTag   = 0x705714c857_000004 // per-(rack,tick) storm severity
	stormHostTag   = 0x705714c857_000005 // per-host storm outcome draws
	hostFlightTag  = 0x705714c857_000006 // per-host flight-recorder sampling
)

// mix64 is the splitmix64 finalizer: a cheap bijective avalanche that turns
// small sequential IDs into well-spread stream tags.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hostU returns host h's fixed uniform draw in [0,1) for the given
// selection tag (migration order, push order): a pure function of (seed,
// tag, h), so membership is identical regardless of sharding or scheduling.
func hostU(seed, tag uint64, h int) float64 {
	v := mix64(rng.DeriveSeed(seed, tag) ^ mix64(uint64(h)+0x9e3779b97f4a7c15))
	return float64(v>>11) / (1 << 53)
}

// stormEffect is the rack-level view of the storms active during one tick:
// every host of the rack observes the same windows and severity.
type stormEffect struct {
	Active   bool
	FailProb float64 // extra per-op failure probability
	LatMult  float64 // service-time multiplier
}

// stormEffects computes rack r's per-tick effects. Severity randomness (GC
// storm tails) derives from (seed, rack, tick) alone — a pure function, so
// every shard containing the rack computes identical values and worker
// scheduling cannot matter. Storms and their rack lists are slices walked
// in declaration order; effects compose additively (failure probability)
// and multiplicatively (latency), so composition is order-insensitive too.
// A rack no enabled storm targets gets nil, which runHost reads as healthy
// on every tick — so only stormed racks allocate.
func stormEffects(cfg *ClusterConfig, rack int) []stormEffect {
	var effs []stormEffect
	for _, storm := range cfg.Storms {
		if storm.Disabled {
			continue
		}
		hit := false
		for _, r := range storm.Racks {
			if r == rack {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		if effs == nil {
			effs = make([]stormEffect, cfg.Ticks)
			for i := range effs {
				effs[i].LatMult = 1
			}
		}
		for t := 0; t < cfg.Ticks; t++ {
			lo := sim.Time(t) * cfg.TickDur
			hi := lo + cfg.TickDur
			var sev *rng.Source // lazily derived per (rack, tick)
			for _, e := range storm.Plan.Episodes {
				ov := min(e.End(), hi) - max(e.At, lo)
				if ov <= 0 {
					continue
				}
				frac := float64(ov) / float64(cfg.TickDur)
				if sev == nil {
					sev = rng.Derive(cfg.Seed, stormRackTag^mix64(uint64(rack)<<20|uint64(t)+1))
				}
				eff := &effs[t]
				eff.Active = true
				switch e.Kind {
				case fault.Error:
					eff.FailProb += e.Rate * frac
				case fault.Stall:
					// Nothing completes during the stall: ops landing in
					// the window miss their deadlines outright.
					eff.FailProb += frac
				case fault.Slow:
					eff.LatMult *= 1 + (e.Factor-1)*frac
				case fault.GCStorm:
					// Rack-correlated severity: one Pareto draw shared by
					// the whole rack scales both the latency tail and the
					// deadline-miss probability.
					s := sev.Pareto(1, 1.5)
					eff.LatMult *= 1 + frac*e.Rate*s*float64(e.Stall)/float64(sim.Millisecond)*0.01
					eff.FailProb += 0.5 * e.Rate * frac
				case fault.IOPSCap:
					// A collapsed provisioned-IOPS floor queues everything;
					// penalty grows as the cap shrinks below ~10k IOPS.
					pen := math.Min(10, 10000/e.Rate)
					eff.LatMult *= 1 + frac*pen
				}
			}
			if effs[t].FailProb > 1 {
				effs[t].FailProb = 1
			}
		}
	}
	return effs
}

// TickStats aggregates one tick across all merged hosts.
type TickStats struct {
	Ops        uint64 `json:"ops"`
	Fails      uint64 `json:"fails"`       // deadline misses, healthy + storm
	StormFails uint64 `json:"storm_fails"` // the subset caused by storm injection
	Migrated   int    `json:"migrated"`    // hosts on the new controller this tick
	Pushed     int    `json:"pushed"`      // hosts on the pushed config this tick
	StormHosts int    `json:"storm_hosts"` // hosts under an active storm this tick
}

// Summary is the streaming aggregate of a cluster run: bounded state
// (per-tick counters plus one mergeable latency sketch), no per-host
// retention. Shard summaries and the cluster total are the same type;
// Merge folds one into another.
type Summary struct {
	Kind    OpKind
	Hosts   int
	Racks   int
	Shards  int
	Ticks   int
	TickDur sim.Time
	PerTick []TickStats
	// Latency sketches effective op completion latency (ns) across every
	// host and tick; failed ops record their 3×deadline timeout. Merged
	// shard sketches answer fleet percentiles within
	// stats.QuantileRelError of the unsharded population (pinned by the
	// stats merge property tests).
	Latency *stats.Histogram

	// Flight-recorder roll-up (zero unless ClusterConfig.Flight sampled
	// hosts): how many hosts carried recorders, the retained incidents in
	// (shard, host, tick) order, and how many triggers the MaxIncidents
	// bound dropped. flightMax carries the bound through Merge.
	FlightSampled   int
	FlightIncidents []FleetIncident
	FlightDropped   int
	flightMax       int

	// Calib is the full-vs-outcome cross-calibration block, non-nil only
	// when ClusterConfig.Fidelity runs full machines (its absence keeps
	// outcome-only runs byte-identical to historical goldens).
	Calib *Calib
}

// addIncident retains inc under the MaxIncidents bound.
func (s *Summary) addIncident(inc FleetIncident) {
	if s.flightMax > 0 && len(s.FlightIncidents) >= s.flightMax {
		s.FlightDropped++
		return
	}
	s.FlightIncidents = append(s.FlightIncidents, inc)
}

func newSummary(cfg ClusterConfig) *Summary {
	s := &Summary{
		Kind:    cfg.Kind,
		Ticks:   cfg.Ticks,
		TickDur: cfg.TickDur,
		PerTick: make([]TickStats, cfg.Ticks),
		Latency: stats.NewHistogram(),
	}
	if cfg.Flight != nil {
		s.flightMax = cfg.Flight.MaxIncidents
	}
	if cfg.Fidelity.enabled() {
		s.Calib = newCalib(cfg.Ticks)
	}
	return s
}

// reset returns s to newSummary's state for the same config, keeping its
// buffers: RunCluster recycles shard summaries through it, so it must
// clear everything Merge reads.
func (s *Summary) reset() {
	s.Hosts, s.Racks, s.Shards = 0, 0, 0
	clear(s.PerTick)
	s.Latency.Reset()
	s.FlightSampled, s.FlightDropped = 0, 0
	s.FlightIncidents = s.FlightIncidents[:0]
	if s.Calib != nil {
		s.Calib.reset()
	}
}

// Merge folds o into s. Merging in shard-index order (which RunCluster
// guarantees) makes even the float moment sums byte-stable.
func (s *Summary) Merge(o *Summary) {
	if s.Ticks != o.Ticks {
		panic("fleet: merging summaries with different tick counts")
	}
	s.Hosts += o.Hosts
	s.Racks += o.Racks
	s.Shards += o.Shards
	for i := range s.PerTick {
		a, b := &s.PerTick[i], &o.PerTick[i]
		a.Ops += b.Ops
		a.Fails += b.Fails
		a.StormFails += b.StormFails
		a.Migrated += b.Migrated
		a.Pushed += b.Pushed
		a.StormHosts += b.StormHosts
	}
	s.Latency.Merge(o.Latency)
	s.FlightSampled += o.FlightSampled
	s.FlightDropped += o.FlightDropped
	for _, inc := range o.FlightIncidents {
		s.addIncident(inc)
	}
	if s.Calib != nil && o.Calib != nil {
		s.Calib.merge(o.Calib)
	}
}

// HostTickView is one host-tick as the per-host debug/test API reports it.
type HostTickView struct {
	Tick          int
	Pressure      float64
	Migrated      bool
	Pushed        bool
	StormActive   bool
	StormFailProb float64
	StormLatMult  float64
	Ops           int
	HealthyFails  int
	StormFails    int
}

// runHost simulates host h for every tick, folding results into acc and,
// when view is non-nil, reporting each tick through it. This is the one
// per-host code path: RunCluster's shards and SimulateHost both use it, so
// what the tests inspect is exactly what the fleet aggregates.
//
// The wrapper owns everything common to every fidelity — envelope behaviors
// (migration, push, storm), TickStats bookkeeping, flight incidents, debug
// views — while the HostModel owns what the host actually did (pressure,
// op outcomes, latency observations). Outcome hosts run on oh, reseeded
// for h.
func runHost(cfg *ClusterConfig, h int, effs []stormEffect, oh *outcomeHost, acc *Summary, view func(HostTickView)) {
	var machine HostModel
	if cfg.Fidelity.fullHost(cfg.Seed, h) {
		machine = cfg.Fidelity.Machine(HostSpec{
			Seed: cfg.Seed, Host: h, Rack: h / cfg.RackSize, Kind: cfg.Kind,
			Ticks: cfg.Ticks, TickDur: cfg.TickDur,
			OpsPerHostTick: cfg.OpsPerHostTick,
			Window:         min(cfg.Fidelity.Window, cfg.TickDur),
		})
		if acc.Calib != nil {
			acc.Calib.FullHosts++
		}
	} else {
		oh.reseed(cfg, h)
	}
	migU := hostU(cfg.Seed, hostMigrateTag, h)
	pushU := hostU(cfg.Seed, hostPushTag, h)

	fl := cfg.Flight
	sampled := fl != nil && fl.SampleFrac > 0 && hostU(cfg.Seed, hostFlightTag, h) < fl.SampleFrac
	if sampled {
		acc.FlightSampled++
	}
	prevStorm := false

	for t := 0; t < cfg.Ticks; t++ {
		env := HostTickEnv{
			Tick:          t,
			Migrated:      cfg.Migration != nil && migU < cfg.Migration.frac(t),
			Pushed:        cfg.Push != nil && pushU < cfg.Push.frac(t),
			StormActive:   false,
			StormLatMult:  1,
			StormFailProb: 0,
		}
		if env.Pushed {
			env.PushFailFactor = cfg.Push.FailFactor
			env.PushLatFactor = cfg.Push.LatFactor
		}
		if effs != nil {
			eff := effs[t]
			env.StormActive = eff.Active
			env.StormFailProb = eff.FailProb
			env.StormLatMult = eff.LatMult
		}

		var r HostTickResult
		if machine != nil {
			r = machine.Tick(env, acc)
		} else {
			r = oh.Tick(env, acc)
		}

		ts := &acc.PerTick[t]
		ts.Ops += uint64(r.Ops)
		ts.Fails += uint64(r.HealthyFails + r.StormFails)
		ts.StormFails += uint64(r.StormFails)
		if env.Migrated {
			ts.Migrated++
		}
		if env.Pushed {
			ts.Pushed++
		}
		if env.StormActive {
			ts.StormHosts++
		}

		// The sampled black box: storm onset is always an incident (the
		// fleet analogue of the fault-storm-start trigger), a failure
		// spike past the ceiling is one too.
		if sampled {
			failFrac := float64(r.HealthyFails+r.StormFails) / float64(r.Ops)
			reason := ""
			switch {
			case env.StormActive && !prevStorm:
				reason = "storm-onset"
			case failFrac >= fl.FailCeil:
				reason = "fail-spike"
			}
			if reason != "" {
				acc.addIncident(FleetIncident{
					Host: h, Rack: h / cfg.RackSize, Tick: t, Reason: reason,
					FailFrac: failFrac, LatMult: env.StormLatMult,
					Migrated: env.Migrated, Pushed: env.Pushed,
				})
			}
		}
		prevStorm = env.StormActive

		if view != nil {
			view(HostTickView{
				Tick: t, Pressure: r.Pressure, Migrated: env.Migrated, Pushed: env.Pushed,
				StormActive: env.StormActive, StormFailProb: env.StormFailProb,
				StormLatMult: env.StormLatMult, Ops: r.Ops,
				HealthyFails: r.HealthyFails, StormFails: r.StormFails,
			})
		}
	}
}

// runShard simulates one shard — a contiguous group of racks — into acc,
// an empty Summary. Racks and hosts are walked in ascending ID order.
func runShard(cfg *ClusterConfig, topo Topology, shard int, acc *Summary) {
	var oh outcomeHost
	acc.Shards = 1
	rackLo := shard * cfg.ShardRacks
	rackHi := min(rackLo+cfg.ShardRacks, topo.Racks())
	for rack := rackLo; rack < rackHi; rack++ {
		effs := stormEffects(cfg, rack)
		lo, hi := topo.RackHosts(rack)
		for h := lo; h < hi; h++ {
			runHost(cfg, h, effs, &oh, acc, nil)
		}
		acc.Racks++
		acc.Hosts += hi - lo
	}
}

// RunCluster simulates the fleet and returns its merged summary.
//
// Shards fan out across cfg.Workers goroutines but merge strictly in
// shard-index order, with at most clusterBatch unmerged shard summaries
// retained at once (fanout.ForEachNMerge), so results are byte-identical
// for every worker count and memory stays bounded by the window — not the
// host count.
//
// Merged shard summaries are reset and recycled through a free list, so a
// run builds one summary per shard in flight, not one per shard.
func RunCluster(cfg ClusterConfig) (*Summary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	topo := Topology{Hosts: cfg.Hosts, RackSize: cfg.RackSize}
	shards := (topo.Racks() + cfg.ShardRacks - 1) / cfg.ShardRacks

	// The merge window bounds how many shard summaries are alive at once,
	// so a free list that size can hold every one of them.
	free := make(chan *Summary, clusterBatch)
	total := newSummary(cfg)
	fanout.ForEachNMerge(shards, cfg.Workers, clusterBatch,
		func(i int) *Summary {
			var acc *Summary
			select {
			case acc = <-free:
			default:
				acc = newSummary(cfg)
			}
			runShard(&cfg, topo, i, acc)
			return acc
		},
		func(_ int, s *Summary) {
			total.Merge(s)
			s.reset()
			select {
			case free <- s:
			default:
			}
		})
	return total, nil
}

// SimulateHost replays one host of the cluster through exactly the code
// path RunCluster uses and returns its per-tick views: the debug/test
// window into a fleet whose aggregate retains no per-host state.
func SimulateHost(cfg ClusterConfig, h int) ([]HostTickView, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if h < 0 || h >= cfg.Hosts {
		return nil, fmt.Errorf("fleet: host %d outside topology of %d hosts", h, cfg.Hosts)
	}
	topo := Topology{Hosts: cfg.Hosts, RackSize: cfg.RackSize}
	effs := stormEffects(&cfg, topo.RackOf(h))
	views := make([]HostTickView, 0, cfg.Ticks)
	var oh outcomeHost
	runHost(&cfg, h, effs, &oh, newSummary(cfg), func(v HostTickView) { views = append(views, v) })
	return views, nil
}

// Reduction returns first-tick failures divided by last-tick failures — the
// headline number of Figs 18/19.
func (s *Summary) Reduction() float64 {
	if len(s.PerTick) == 0 {
		return 0
	}
	first := float64(s.PerTick[0].Fails)
	last := float64(s.PerTick[len(s.PerTick)-1].Fails)
	if last == 0 {
		return first
	}
	return first / last
}

// ms renders a nanosecond latency in milliseconds.
func ms(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }

// Format renders the summary deterministically: identical summaries produce
// identical bytes (the fleet determinism golden pins this output).
func (s *Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet %s: hosts=%d racks=%d shards=%d ticks=%d tick=%ds\n",
		s.Kind, s.Hosts, s.Racks, s.Shards, s.Ticks, int64(s.TickDur/sim.Second))
	fmt.Fprintf(&b, "%4s %12s %10s %12s %9s %8s %8s\n",
		"tick", "ops", "fails", "storm_fails", "migrated", "pushed", "stormy")
	for t, ts := range s.PerTick {
		fmt.Fprintf(&b, "%4d %12d %10d %12d %9d %8d %8d\n",
			t, ts.Ops, ts.Fails, ts.StormFails, ts.Migrated, ts.Pushed, ts.StormHosts)
	}
	fmt.Fprintf(&b, "latency: p50=%s p90=%s p99=%s max=%s n=%d\n",
		ms(s.Latency.Quantile(0.5)), ms(s.Latency.Quantile(0.9)),
		ms(s.Latency.Quantile(0.99)), ms(s.Latency.Max()), s.Latency.Count())
	fmt.Fprintf(&b, "failures: first=%d last=%d reduction=%.1fx\n",
		s.PerTick[0].Fails, s.PerTick[len(s.PerTick)-1].Fails, s.Reduction())
	// The fidelity section appears only when full machines ran, so
	// outcome-only runs keep their historical bytes.
	if c := s.Calib; c != nil {
		fmt.Fprintf(&b, "fidelity: full-machine hosts=%d outcome hosts=%d\n",
			c.FullHosts, s.Hosts-c.FullHosts)
		fmt.Fprintf(&b, "%4s %14s %8s %14s %8s\n",
			"tick", "full_p99", "full_n", "outcome_p99", "outc_n")
		for t := range c.PerTick {
			ct := c.PerTick[t]
			fmt.Fprintf(&b, "%4d %14s %8d %14s %8d\n",
				t, ms(ct.Full.Quantile(0.99)), ct.Full.Count(),
				ms(ct.Outcome.Quantile(0.99)), ct.Outcome.Count())
		}
		fmt.Fprintf(&b, "calib workloads: protected_p99=%s best_effort_p99=%s\n",
			ms(c.Protected.Quantile(0.99)), ms(c.BestEffort.Quantile(0.99)))
	}
	// The flight section appears only when recorders were sampled, so
	// unsampled runs keep their historical bytes.
	if s.FlightSampled > 0 {
		fmt.Fprintf(&b, "flight: sampled=%d incidents=%d dropped=%d\n",
			s.FlightSampled, len(s.FlightIncidents), s.FlightDropped)
		for _, inc := range s.FlightIncidents {
			fmt.Fprintf(&b, "  host %d (rack %d) tick %d: %s fail=%.2f latx=%.2f migrated=%t pushed=%t\n",
				inc.Host, inc.Rack, inc.Tick, inc.Reason, inc.FailFrac, inc.LatMult,
				inc.Migrated, inc.Pushed)
		}
	}
	return b.String()
}

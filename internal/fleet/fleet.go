// Package fleet reproduces the region-migration results of §4.8: package
// fetching and container cleanup failure rates as a region of hosts migrates
// from IOLatency to IOCost (Figures 18 and 19).
//
// The methodology is two-level: short per-host micro-simulations measure the
// probability that a system-slice operation (package fetch, container
// cleanup) fails under a given main-workload IO pressure and controller,
// yielding failure-probability curves; a Monte-Carlo sweep then draws
// per-host pressures for a region of hosts week by week as the migrated
// fraction grows, producing the fleet-wide failure series the paper plots.
package fleet

import (
	"sort"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
	"github.com/iocost-sim/iocost/internal/workload"
)

// Host is one machine's IO stack as fleet experiments see it: the block
// queue plus the three top-level slices of the production hierarchy
// (Figure 1).
type Host struct {
	Q            *blk.Queue
	System       *cgroup.Node
	HostCritical *cgroup.Node
	Workload     *cgroup.Node
}

// HostFactory builds a fresh host with some controller on a fresh engine.
type HostFactory func(eng *sim.Engine, seed uint64) Host

// OpKind selects the system-slice operation under test.
type OpKind int

const (
	// PackageFetch is the system service downloading and verifying a
	// container package on behalf of the agent (Figure 18).
	PackageFetch OpKind = iota
	// ContainerCleanup is the agent removing old container filesystems:
	// many small synchronous metadata operations (Figure 19).
	ContainerCleanup
)

func (o OpKind) String() string {
	if o == PackageFetch {
		return "package-fetch"
	}
	return "container-cleanup"
}

// opSpec describes the operation and its failure threshold.
type opSpec struct {
	chunk    int64
	chunks   int
	window   int // concurrent chunks in flight
	op       bio.Op
	flags    bio.Flags
	deadline sim.Time
	system   bool // run in System (true) or HostCritical (false)
	// baseFail is the operation's non-IO failure floor (network flakes,
	// races, bad packages): failures no IO controller can remove, which
	// set the denominator of the achievable reduction factor.
	baseFail float64
}

func specFor(kind OpKind) opSpec {
	switch kind {
	case PackageFetch:
		// 96MiB downloaded (written) then verified (read) in 512KiB
		// chunks with writeback-style parallelism, within 10s.
		return opSpec{chunk: 512 << 10, chunks: 96 * 2, window: 8, op: bio.Write,
			deadline: 10 * sim.Second, system: true, baseFail: 0.009}
	default:
		// 480 16KiB synchronous metadata writes, a few in flight, within
		// 5s (the paper's 5s stall threshold).
		return opSpec{chunk: 16 << 10, chunks: 480, window: 4, op: bio.Write, flags: bio.Sync,
			deadline: 5 * sim.Second, system: false, baseFail: 0.055}
	}
}

// runStep is the engine step while RunOp waits for the operation to finish
// or its deadline to pass.
const runStep = 10 * sim.Millisecond

// RunOp executes one operation on a freshly built host whose main workload
// exerts the given pressure (fraction of device random-read capacity plus
// proportional write load). It returns the operation's completion time and
// true if it finished within the deadline; otherwise it returns the 3x
// deadline timeout the fleet records for a failed operation, and false.
// The micro-simulation stops as soon as the outcome is known: when the
// operation completes, or once its deadline has passed.
func RunOp(factory HostFactory, kind OpKind, pressure float64, seed uint64) (sim.Time, bool) {
	eng := sim.New()
	h := factory(eng, seed)
	spec := specFor(kind)

	// Main workload pressure: open-loop random reads plus buffered
	// writes scaled to the requested fraction of device capability.
	job := h.Workload.NewChild("job", cgroup.DefaultWeight)
	workload.NewReplayer(h.Q, job, workload.DemandProfile{
		Name:          "pressure",
		ReadBps:       pressure * 450e6,
		WriteBps:      pressure * 120e6,
		ReadRandFrac:  0.8,
		WriteRandFrac: 0.3,
		IOSize:        16 << 10,
	}, 0, seed^0xf1ee7).Start()

	// Let contention establish.
	eng.RunUntil(500 * sim.Millisecond)

	cg := h.HostCritical
	if spec.system {
		cg = h.System
	}
	agent := cg.NewChild("op", cgroup.DefaultWeight)

	start := eng.Now()
	var finished sim.Time
	done := false
	issued, completed := 0, 0
	rnd := rng.Derive(seed, 0x09)
	var pump func()
	onDone := func(*bio.Bio) {
		completed++
		if completed == spec.chunks {
			finished = eng.Now() - start
			done = true
			return
		}
		pump()
	}
	pump = func() {
		for issued-completed < spec.window && issued < spec.chunks {
			op := spec.op
			off := int64(1)<<41 + int64(issued)*spec.chunk
			if kind == PackageFetch && issued >= spec.chunks/2 {
				op = bio.Read // verification pass
			}
			if kind == ContainerCleanup {
				off = int64(1)<<41 + rnd.Int63n(1<<30)
			}
			issued++
			b := h.Q.BioPool().Get()
			b.Op = op
			b.Flags = spec.flags
			b.Off = off
			b.Size = spec.chunk
			b.CG = agent
			b.OnDone = onDone
			h.Q.Submit(b)
		}
	}
	pump()

	end := start + spec.deadline
	for !done && eng.Now() < end {
		eng.RunUntil(min(eng.Now()+runStep, end))
	}
	if !done {
		return 3 * spec.deadline, false
	}
	return finished, true
}

// Curve maps workload pressure to operation failure probability.
type Curve struct {
	Kind      OpKind
	Pressures []float64
	FailProb  []float64
}

// MeasureCurve builds a failure-probability curve by running trials at each
// pressure level.
func MeasureCurve(factory HostFactory, kind OpKind, pressures []float64, trials int, seed uint64) Curve {
	c := Curve{Kind: kind, Pressures: append([]float64(nil), pressures...)}
	sort.Float64s(c.Pressures)
	base := specFor(kind).baseFail
	for _, p := range c.Pressures {
		fails := 0
		for t := 0; t < trials; t++ {
			_, ok := RunOp(factory, kind, p, seed+uint64(t)*7919+uint64(p*1000))
			if !ok {
				fails++
			}
		}
		ioFail := float64(fails) / float64(trials)
		c.FailProb = append(c.FailProb, ioFail+(1-ioFail)*base)
	}
	return c
}

// At interpolates the failure probability at pressure p.
func (c Curve) At(p float64) float64 {
	if len(c.Pressures) == 0 {
		return 0
	}
	if p <= c.Pressures[0] {
		return c.FailProb[0]
	}
	last := len(c.Pressures) - 1
	if p >= c.Pressures[last] {
		return c.FailProb[last]
	}
	i := sort.SearchFloat64s(c.Pressures, p)
	x0, x1 := c.Pressures[i-1], c.Pressures[i]
	y0, y1 := c.FailProb[i-1], c.FailProb[i]
	return y0 + (y1-y0)*(p-x0)/(x1-x0)
}

// MigrationConfig parameterizes the region sweep.
type MigrationConfig struct {
	Hosts int // hosts in the region
	Weeks int // duration of the migration
	// OpsPerHostWeek is how many operations of the kind each host
	// performs per week.
	OpsPerHostWeek int
	Seed           uint64
}

func (m MigrationConfig) withDefaults() MigrationConfig {
	if m.Hosts == 0 {
		m.Hosts = 2000
	}
	if m.Weeks == 0 {
		m.Weeks = 8
	}
	if m.OpsPerHostWeek == 0 {
		m.OpsPerHostWeek = 20
	}
	return m
}

// drawPressure samples a host-week's main-workload IO pressure: mostly
// moderate, with a contended tail.
func drawPressure(r *rng.Source) float64 {
	switch {
	case r.Bool(0.70):
		return 0.2 + 0.5*r.Float64()
	case r.Bool(0.83): // 25% of the remainder
		return 0.7 + 0.25*r.Float64()
	default:
		return 0.95 + 0.15*r.Float64()
	}
}

// MigrationSweep simulates the region migrating from the old controller's
// curve to the new one, returning weekly fleet-wide failure counts. Week w
// has fraction w/(Weeks-1) of hosts migrated.
func MigrationSweep(old, new_ Curve, cfg MigrationConfig) *stats.Series {
	cfg = cfg.withDefaults()
	r := rng.Derive(cfg.Seed, 0xf1e7)
	s := &stats.Series{Name: old.Kind.String() + "-failures"}
	for w := 0; w < cfg.Weeks; w++ {
		migrated := float64(w) / float64(cfg.Weeks-1)
		fails := 0
		for h := 0; h < cfg.Hosts; h++ {
			curve := old
			if float64(h)/float64(cfg.Hosts) < migrated {
				curve = new_
			}
			for op := 0; op < cfg.OpsPerHostWeek; op++ {
				if r.Bool(curve.At(drawPressure(r))) {
					fails++
				}
			}
		}
		s.Add(float64(w), float64(fails))
	}
	return s
}

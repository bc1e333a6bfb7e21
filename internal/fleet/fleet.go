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
	"sync"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
	"github.com/iocost-sim/iocost/internal/workload"
)

// Host is the cgroup stack a fleet operation runs on: a block queue plus
// the three top-level slices of the production hierarchy (Figure 1).
type Host struct {
	Q            *blk.Queue
	System       *cgroup.Node
	HostCritical *cgroup.Node
	Workload     *cgroup.Node
}

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

// opSpec is the full-size operation and its non-IO failure floor.
type opSpec struct {
	op OpProbe
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
		return opSpec{op: OpProbe{Scale: 1, Chunk: 512 << 10, Chunks: 96 * 2, Window: 8,
			ReadHalf: true, System: true, Deadline: 10 * sim.Second}, baseFail: 0.009}
	default:
		// 480 16KiB synchronous metadata writes at random offsets, a few
		// in flight, within 5s (the paper's 5s stall threshold).
		return opSpec{op: OpProbe{Scale: 1, Chunk: 16 << 10, Chunks: 480, Window: 4,
			Sync: true, RandomOff: true, Deadline: 5 * sim.Second}, baseFail: 0.055}
	}
}

// OpState tracks one operation that OpProbe.Start began.
type OpState struct {
	start     sim.Time
	issued    int
	completed int
	stopped   bool
	// Done reports that every chunk completed; Lat is then the time from
	// the operation's start to its last completion.
	Done bool
	Lat  sim.Time
}

// Stop stops an unfinished operation: its chunks in flight still
// complete, but it issues no further chunk and takes no further offset
// draw.
func (st *OpState) Stop() { st.stopped = true }

// Start begins the operation on q in cgroup cg, with chunk offsets from
// base: sequential, or drawn from rnd when p.RandomOff. It keeps p.Window
// chunks in flight until all p.Chunks complete or st is stopped, and
// records its progress in st. It is the only code that submits a fleet
// operation's chunks.
func (p OpProbe) Start(q *blk.Queue, cg *cgroup.Node, base int64, rnd *rng.Source, st *OpState) {
	eng := q.Engine()
	st.start = eng.Now()
	var flags bio.Flags
	if p.Sync {
		flags = bio.Sync
	}
	var pump func()
	onDone := func(*bio.Bio) {
		st.completed++
		if st.completed == p.Chunks {
			st.Done = true
			st.Lat = eng.Now() - st.start
			return
		}
		pump()
	}
	pump = func() {
		if st.stopped {
			return
		}
		for st.issued-st.completed < p.Window && st.issued < p.Chunks {
			op := bio.Write
			if p.ReadHalf && st.issued >= p.Chunks/2 {
				op = bio.Read // the fetch's verification pass
			}
			off := base + int64(st.issued)*p.Chunk
			if p.RandomOff {
				off = base + rnd.Int63n(1<<30)
			}
			st.issued++
			b := q.BioPool().Get()
			b.Op = op
			b.Flags = flags
			b.Off = off
			b.Size = p.Chunk
			b.CG = cg
			b.OnDone = onDone
			q.Submit(b)
		}
	}
	pump()
}

// runStep is the engine step while RunOp waits for the operation to finish
// or its deadline to pass.
const runStep = 10 * sim.Millisecond

// RunOp executes kind's full-size operation on h, a host built at time
// zero with nothing scheduled, whose main workload exerts the given
// pressure (fraction of device random-read capacity plus proportional
// write load). It returns the operation's completion time and true if it
// finished within the deadline; otherwise it returns the 3x deadline
// timeout the fleet records for a failed operation, and false. The
// micro-simulation stops as soon as the outcome is known: when the
// operation completes, or once its deadline has passed.
func RunOp(h Host, kind OpKind, pressure float64, seed uint64) (sim.Time, bool) {
	eng := h.Q.Engine()

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

	op := kind.Probe(1)
	cg := h.HostCritical
	if op.System {
		cg = h.System
	}
	var st OpState
	op.Start(h.Q, cg.NewChild("op", cgroup.DefaultWeight), 1<<41, rng.Derive(seed, 0x09), &st)

	end := st.start + op.Deadline
	for !st.Done && eng.Now() < end {
		eng.RunUntil(min(eng.Now()+runStep, end))
	}
	if !st.Done {
		return 3 * op.Deadline, false
	}
	return st.Lat, true
}

// Curve maps workload pressure to operation failure probability.
type Curve struct {
	Kind      OpKind
	Pressures []float64
	FailProb  []float64
}

// Grid holds the outcomes of the micro-simulations behind a set of
// failure-probability curves: one cell per (curve, pressure, trial).
// Cells are ordered by pressure, which tracks their cost: a backlog
// grows with the main workload, so the cells at the highest pressure
// queue the most bios.
type Grid struct {
	kind      OpKind
	pressures []float64 // ascending
	trials    int
	curves    int
	cells     []gridCell
}

type gridCell struct {
	lat sim.Time
	ok  bool
}

// MeasureGrid runs every cell of the grid behind curves failure-probability
// curves of kind's operation, at each pressure, trials times. Curve i's
// trial t at pressure p is cell(w, i, p, seed+i+t*7919+p*1000) for a
// worker w of 0 or 1. cell must return what RunOp returns for its curve's
// host at that pressure and seed, whichever worker runs it, so the grid is
// the same whichever order its cells run in.
//
// Exactly two workers run the cells, whatever GOMAXPROCS is: worker 0
// claims from the cheap end and worker 1 from the expensive end until they
// meet. A cell function that keeps one machine per worker, reset between
// its cells, therefore holds at most the bios of the grid's two largest
// cells, and the cheap end's machine grows only as far as the cells it
// reaches before the two workers meet.
func MeasureGrid(curves int, kind OpKind, pressures []float64, trials int, seed uint64,
	cell func(worker, curve int, pressure float64, seed uint64) (sim.Time, bool)) *Grid {
	g := &Grid{kind: kind, pressures: append([]float64(nil), pressures...), trials: trials, curves: curves}
	sort.Float64s(g.pressures)
	g.cells = make([]gridCell, len(g.pressures)*g.curves*trials)

	var mu sync.Mutex
	lo, hi := 0, len(g.cells)
	claim := func(top bool) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case lo >= hi:
			return 0, false
		case top:
			hi--
			return hi, true
		default:
			lo++
			return lo - 1, true
		}
	}
	var wg sync.WaitGroup
	for w, top := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c, ok := claim(top); ok; c, ok = claim(top) {
				t := c % trials
				i := c / trials % g.curves
				p := g.pressures[c/trials/g.curves]
				gc := &g.cells[c]
				gc.lat, gc.ok = cell(w, i, p, seed+uint64(i)+uint64(t)*7919+uint64(p*1000))
			}
		}()
	}
	wg.Wait()
	return g
}

// Cell returns the outcome of curve i's trial t at the pth pressure in
// ascending order, as RunOp reports it.
func (g *Grid) Cell(i, p, t int) (sim.Time, bool) {
	c := g.cells[(p*g.curves+i)*g.trials+t]
	return c.lat, c.ok
}

// Curve folds curve i's first trials trials at each pressure into a
// failure-probability curve: the share of trials that missed their
// deadline, plus the operation's non-IO failure floor on the rest.
func (g *Grid) Curve(i, trials int) Curve {
	if trials > g.trials {
		panic("fleet: folding more trials than the grid ran")
	}
	c := Curve{Kind: g.kind, Pressures: append([]float64(nil), g.pressures...)}
	base := specFor(g.kind).baseFail
	for p := range g.pressures {
		fails := 0
		for t := 0; t < trials; t++ {
			if _, ok := g.Cell(i, p, t); !ok {
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

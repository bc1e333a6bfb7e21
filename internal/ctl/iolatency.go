package ctl

import (
	"math"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
)

// IOLatency models the io.latency controller (the authors' first-generation
// solution, §2.2): each protected cgroup declares a completion-latency
// target; when a group misses its target, every group with a *looser*
// target (lower priority) has its queue depth scaled down until the victim
// recovers. It provides strict prioritization, not proportional fairness —
// equal-priority groups cannot be arbitrated — and finding configurations
// that are simultaneously isolating and work-conserving is difficult, which
// is why IOCost replaced it.
//
// Metadata IO bypasses throttling. Swap IO is throttled at the owning
// cgroup's depth like any other IO — which protects victims from a leaking
// neighbour's reclaim traffic, but also recreates the priority inversions
// the authors describe hitting in production (§5): a high-priority task in
// direct reclaim can end up waiting on a low-priority group's throttled
// swap-out.
type IOLatency struct {
	q       *blk.Queue
	targets map[*cgroup.Node]sim.Time
	state   map[*cgroup.Node]*iolatState
	// order holds states in creation order: evaluate re-issues queued bios
	// while walking it, so issue order is deterministic instead of
	// following map iteration order.
	order  []*iolatState
	ticker *sim.Ticker

	// Window is the evaluation period.
	Window sim.Time
}

type iolatState struct {
	cg       *cgroup.Node
	target   sim.Time
	lat      *stats.Histogram
	depth    int // current allowed in-flight; maxInt when unthrottled
	inFlight int
	wait     bio.List
	okRuns   int // consecutive clean windows, for scale-up
}

const unthrottled = math.MaxInt32

// NewIOLatency returns an io.latency controller with no targets set.
func NewIOLatency() *IOLatency {
	return &IOLatency{
		targets: make(map[*cgroup.Node]sim.Time),
		state:   make(map[*cgroup.Node]*iolatState),
		Window:  100 * sim.Millisecond,
	}
}

// SetTarget declares a latency target for cg. Groups without targets are
// treated as lowest priority (an infinitely loose target).
func (c *IOLatency) SetTarget(cg *cgroup.Node, target sim.Time) {
	c.targets[cg] = target
	c.stateFor(cg).target = target
}

func (c *IOLatency) stateFor(cg *cgroup.Node) *iolatState {
	st := c.state[cg]
	if st == nil {
		st = &iolatState{
			cg:     cg,
			target: math.MaxInt64,
			lat:    stats.NewHistogram(),
			depth:  unthrottled,
		}
		if t, ok := c.targets[cg]; ok {
			st.target = t
		}
		c.state[cg] = st
		c.order = append(c.order, st)
	}
	return st
}

// Name implements blk.Controller.
func (c *IOLatency) Name() string { return "iolatency" }

// Attach implements blk.Controller.
func (c *IOLatency) Attach(q *blk.Queue) {
	c.q = q
	c.ticker = q.Engine().NewTicker(c.Window, c.evaluate)
}

// Submit implements blk.Controller.
func (c *IOLatency) Submit(b *bio.Bio) {
	if b.CG == nil || b.Flags.Has(bio.Meta) {
		c.q.Issue(b)
		return
	}
	st := c.stateFor(b.CG)
	if st.inFlight >= st.depth {
		st.wait.Push(b)
		return
	}
	st.inFlight++
	c.q.Issue(b)
}

// Completed implements blk.Controller.
func (c *IOLatency) Completed(b *bio.Bio) {
	if b.CG == nil {
		return
	}
	st := c.stateFor(b.CG)
	st.lat.Observe(int64(b.DeviceLatency()))
	if b.Flags.Has(bio.Meta) {
		return
	}
	st.inFlight--
	c.release(st)
}

func (c *IOLatency) release(st *iolatState) {
	for st.inFlight < st.depth {
		next := st.wait.Pop()
		if next == nil {
			return
		}
		st.inFlight++
		c.q.Issue(next)
	}
}

// evaluate runs once per window: find the tightest-target group that missed
// its target, then halve the depth of every looser-target group. If nobody
// missed, slowly restore depth.
func (c *IOLatency) evaluate() {
	var victim sim.Time = math.MaxInt64
	missed := false
	for _, st := range c.order {
		if st.target == math.MaxInt64 || st.lat.Count() == 0 {
			continue
		}
		// The kernel compares windowed mean completion latency for
		// missed-target detection.
		if sim.Time(st.lat.Mean()) > st.target && st.target < victim {
			victim = st.target
			missed = true
		}
	}
	for _, st := range c.order {
		switch {
		case missed && st.target > victim:
			st.okRuns = 0
			if st.depth == unthrottled {
				st.depth = c.q.Tags()
			}
			st.depth /= 2
			if st.depth < 1 {
				st.depth = 1
			}
		case !missed:
			st.okRuns++
			if st.depth != unthrottled && st.okRuns >= 2 {
				st.depth *= 2
				if st.depth >= c.q.Tags() {
					st.depth = unthrottled
				}
				c.release(st)
			}
		}
		st.lat.Reset()
	}
}

// Features implements FeatureReporter.
func (c *IOLatency) Features() Features {
	return Features{
		LowOverhead:    Yes,
		WorkConserving: Partial,
		MemoryAware:    Yes,
		CgroupControl:  Yes,
	}
}

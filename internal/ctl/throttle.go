package ctl

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/sim"
)

// ThrottleLimits is the blk-throttle configuration for one cgroup; zero
// values mean unlimited.
type ThrottleLimits struct {
	ReadIOPS  float64
	WriteIOPS float64
	ReadBps   float64
	WriteBps  float64
}

// Throttle models blk-throttle: absolute per-cgroup IOPS and byte-rate
// limits enforced by token buckets. Limits are hierarchical, as in the
// kernel: a bio must clear the bucket of its own cgroup and of every
// ancestor with limits configured, so a limit on an inner node bounds the
// whole subtree. It is cgroup-aware but not work-conserving — idle capacity
// is never redistributed — and limits must be configured per workload and
// per device, which is what makes it brittle at fleet scale (§2.2).
type Throttle struct {
	q       *blk.Queue
	limits  map[*cgroup.Node]ThrottleLimits
	state   map[*cgroup.Node]*throttleState
	pending int       // bios delayed by a bucket, not yet issued
	admitFn func(any) // issues a delayed bio; built once, so delay allocates nothing
}

type throttleState struct {
	// nextIO/nextByte are the earliest times the next request/byte may
	// pass each bucket, per direction.
	nextIO   [2]sim.Time
	nextByte [2]sim.Time
}

// NewThrottle returns a blk-throttle controller with no limits configured.
func NewThrottle() *Throttle {
	c := &Throttle{
		limits: make(map[*cgroup.Node]ThrottleLimits),
		state:  make(map[*cgroup.Node]*throttleState),
	}
	c.admitFn = func(a any) {
		c.pending--
		c.q.Issue(a.(*bio.Bio))
	}
	return c
}

// SetLimits configures limits for cg.
func (c *Throttle) SetLimits(cg *cgroup.Node, l ThrottleLimits) {
	c.limits[cg] = l
}

// Name implements blk.Controller.
func (c *Throttle) Name() string { return "blk-throttle" }

// Attach implements blk.Controller.
func (c *Throttle) Attach(q *blk.Queue) { c.q = q }

// Submit implements blk.Controller.
func (c *Throttle) Submit(b *bio.Bio) {
	if b.CG == nil {
		c.q.Issue(b)
		return
	}
	// Walk up the hierarchy: the bio's admission time is the latest of
	// every configured ancestor bucket, and each bucket is charged.
	now := c.q.Now()
	at := now
	for cg := b.CG; cg != nil; cg = cg.Parent() {
		lim, ok := c.limits[cg]
		if !ok {
			continue
		}
		if t := c.charge(cg, lim, b, now); t > at {
			at = t
		}
	}
	if at <= now {
		c.q.Issue(b)
		return
	}
	c.pending++
	c.q.Engine().AtCall(at, c.admitFn, b)
}

// charge advances cg's token buckets for b and returns the admission time
// they impose.
func (c *Throttle) charge(cg *cgroup.Node, lim ThrottleLimits, b *bio.Bio, now sim.Time) sim.Time {
	st := c.state[cg]
	if st == nil {
		st = &throttleState{}
		c.state[cg] = st
	}
	op := int(b.Op)
	var iops, bps float64
	if b.Op == bio.Read {
		iops, bps = lim.ReadIOPS, lim.ReadBps
	} else {
		iops, bps = lim.WriteIOPS, lim.WriteBps
	}

	at := now
	if iops > 0 {
		t := st.nextIO[op]
		if t < now {
			t = now
		}
		st.nextIO[op] = t + sim.Time(1e9/iops)
		if t > at {
			at = t
		}
	}
	if bps > 0 {
		t := st.nextByte[op]
		if t < now {
			t = now
		}
		st.nextByte[op] = t + sim.Time(float64(b.Size)/bps*1e9)
		if t > at {
			at = t
		}
	}
	return at
}

// Completed implements blk.Controller.
func (c *Throttle) Completed(*bio.Bio) {}

// Features implements FeatureReporter.
func (c *Throttle) Features() Features {
	return Features{LowOverhead: Partial, CgroupControl: Yes}
}

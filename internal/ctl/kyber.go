package ctl

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
)

// Kyber models the kyber scheduler: per-direction in-flight depth limits
// adjusted from completion-latency feedback against fixed targets (2ms
// reads, 10ms writes by default). Its fast path is a counter check, so its
// overhead is indistinguishable from no scheduler (Figure 9). It has no
// cgroup awareness.
type Kyber struct {
	q *blk.Queue

	// Latency targets per direction.
	ReadTarget  sim.Time
	WriteTarget sim.Time

	depth  [2]int // current depth limit per op
	inUse  [2]int
	wait   [2]bio.List
	lat    [2]*stats.Histogram
	ticker *sim.Ticker
}

// NewKyber returns a kyber scheduler with kernel-default targets.
func NewKyber() *Kyber {
	return &Kyber{
		ReadTarget:  2 * sim.Millisecond,
		WriteTarget: 10 * sim.Millisecond,
	}
}

// Name implements blk.Controller.
func (c *Kyber) Name() string { return "kyber" }

// Attach implements blk.Controller.
func (c *Kyber) Attach(q *blk.Queue) {
	c.q = q
	for i := range c.depth {
		c.depth[i] = q.Tags()
		c.lat[i] = stats.NewHistogram()
	}
	c.ticker = q.Engine().NewTicker(100*sim.Millisecond, c.adjust)
}

// Submit implements blk.Controller.
func (c *Kyber) Submit(b *bio.Bio) {
	op := int(b.Op)
	if c.inUse[op] >= c.depth[op] {
		c.wait[op].Push(b)
		return
	}
	c.inUse[op]++
	c.q.Issue(b)
}

// Completed implements blk.Controller.
func (c *Kyber) Completed(b *bio.Bio) {
	op := int(b.Op)
	c.inUse[op]--
	c.lat[op].Observe(int64(b.DeviceLatency()))
	// Only refill while under the (possibly just lowered) depth limit.
	if c.inUse[op] < c.depth[op] {
		if next := c.wait[op].Pop(); next != nil {
			c.inUse[op]++
			c.q.Issue(next)
		}
	}
}

func (c *Kyber) adjust() {
	targets := [2]sim.Time{c.ReadTarget, c.WriteTarget}
	for op := range c.depth {
		h := c.lat[op]
		if h.Count() == 0 {
			continue
		}
		p99 := sim.Time(h.Quantile(0.99))
		switch {
		case p99 > targets[op]:
			c.depth[op] /= 2
			if c.depth[op] < 1 {
				c.depth[op] = 1
			}
		case c.depth[op] < c.q.Tags():
			c.depth[op] *= 2
			if c.depth[op] > c.q.Tags() {
				c.depth[op] = c.q.Tags()
			}
		}
		h.Reset()
		// Release waiters admitted by a larger depth.
		for c.inUse[op] < c.depth[op] {
			next := c.wait[op].Pop()
			if next == nil {
				break
			}
			c.inUse[op]++
			c.q.Issue(next)
		}
	}
}

// Features implements FeatureReporter.
func (c *Kyber) Features() Features {
	return Features{LowOverhead: Yes, WorkConserving: Yes}
}

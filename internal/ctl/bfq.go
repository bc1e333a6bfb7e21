package ctl

import (
	"math"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/sim"
)

// BFQ models the Budget Fair Queueing scheduler: per-cgroup queues served
// one at a time, each for a budget of sectors (or until a timeout), selected
// by weighted virtual time over sectors served. Sync queues that run dry are
// idled upon briefly to preserve their claim on the device.
//
// Three properties matter for the paper's experiments and emerge from this
// model:
//
//   - Fairness is in *sectors*, not device occupancy, so a random workload
//     mixed with a sequential one on a spinning disk receives far more than
//     its share of device time (Figure 12).
//   - Exclusive service slots plus idling produce wide latency swings for
//     queues not currently in service (Figures 10, 11) and waste device
//     parallelism on SSDs.
//   - Per-dispatch bookkeeping (queue selection, budget accounting, virtual
//     time updates) makes the per-IO path expensive (Figure 9).
type BFQ struct {
	q      *blk.Queue
	queues map[*cgroup.Node]*bfqQueue
	// order holds queues in creation order: queue selection scans it so
	// vtag ties break deterministically instead of by map iteration order.
	order []*bfqQueue

	// MaxBudget is the sector budget per service slot.
	MaxBudget int64
	// Timeout bounds a service slot in time (kernel default 125ms).
	Timeout sim.Time
	// SliceIdle is how long to idle on an empty sync queue (kernel
	// default 8ms; modern tunings use ~2ms on SSDs).
	SliceIdle sim.Time
	// MaxInFlight bounds dispatch depth while serving a queue.
	MaxInFlight int
	// ChargeFullOnTimeout charges the full budget to queues whose slot
	// ends by timeout, as BFQ does to contain seeky workloads.
	ChargeFullOnTimeout bool

	active    *bfqQueue
	slotStart sim.Time
	served    int64 // sectors served in the current slot
	timeoutEv sim.EventID
	idleEv    sim.EventID
	idling    bool
}

const sectorSize = 512

type bfqQueue struct {
	cg       *cgroup.Node
	pending  bio.List
	vtag     float64 // virtual time in sectors/weight
	weight   float64
	inFlight int
	lastSync bool // last completed request was sync
}

// NewBFQ returns a BFQ scheduler with kernel-like defaults.
func NewBFQ() *BFQ {
	return &BFQ{
		queues:              make(map[*cgroup.Node]*bfqQueue),
		MaxBudget:           16 << 11, // 16 MiB in sectors
		Timeout:             125 * sim.Millisecond,
		SliceIdle:           2 * sim.Millisecond,
		MaxInFlight:         32,
		ChargeFullOnTimeout: true,
	}
}

// Name implements blk.Controller.
func (c *BFQ) Name() string { return "bfq" }

// Attach implements blk.Controller.
func (c *BFQ) Attach(q *blk.Queue) { c.q = q }

func (c *BFQ) queueFor(cg *cgroup.Node) *bfqQueue {
	bq := c.queues[cg]
	if bq == nil {
		w := float64(cgroup.DefaultWeight)
		if cg != nil {
			w = cg.Weight()
		}
		bq = &bfqQueue{cg: cg, weight: w}
		c.queues[cg] = bq
		c.order = append(c.order, bq)
	}
	return bq
}

// Submit implements blk.Controller.
func (c *BFQ) Submit(b *bio.Bio) {
	bq := c.queueFor(b.CG)
	wasEmpty := bq.pending.Len() == 0
	bq.pending.Push(b)
	// Refresh weight in case the cgroup's configuration changed.
	if b.CG != nil {
		bq.weight = b.CG.Weight()
	}
	if wasEmpty && bq.pending.Len() == 1 && bq.inFlight == 0 {
		// A queue becoming busy enters the service tree at no earlier
		// than the current minimum, so long-idle queues cannot claim a
		// huge backlog.
		if min, ok := c.minBusyVtag(); ok && bq.vtag < min {
			bq.vtag = min
		}
	}
	if c.active == bq && c.idling {
		c.stopIdle()
	}
	if c.active == nil {
		c.selectQueue()
	}
	c.pump()
}

func (c *BFQ) minBusyVtag() (float64, bool) {
	min, ok := math.MaxFloat64, false
	for _, bq := range c.order {
		if (bq.pending.Len() > 0 || bq.inFlight > 0) && bq.vtag < min {
			min, ok = bq.vtag, true
		}
	}
	return min, ok
}

// Completed implements blk.Controller.
func (c *BFQ) Completed(b *bio.Bio) {
	bq := c.queueFor(b.CG)
	bq.inFlight--
	bq.lastSync = b.Op == bio.Read || b.Flags.Has(bio.Sync)
	if c.active == bq && bq.pending.Len() == 0 && bq.inFlight == 0 {
		// The in-service queue ran dry: idle on sync queues, otherwise
		// expire the slot immediately.
		if bq.lastSync && c.SliceIdle > 0 && !c.idling {
			c.idling = true
			c.idleEv = c.q.Engine().After(c.SliceIdle, func() {
				c.idling = false
				c.expireSlot(false)
			})
		} else if !c.idling {
			c.expireSlot(false)
		}
	}
	c.pump()
}

func (c *BFQ) stopIdle() {
	if c.idling {
		c.idling = false
		c.q.Engine().Cancel(c.idleEv)
	}
}

// selectQueue picks the busy queue with the smallest vtag and starts a
// service slot for it.
func (c *BFQ) selectQueue() {
	var best *bfqQueue
	for _, bq := range c.order {
		if bq.pending.Len() == 0 {
			continue
		}
		if best == nil || bq.vtag < best.vtag {
			best = bq
		}
	}
	c.active = best
	if best == nil {
		return
	}
	c.served = 0
	c.slotStart = c.q.Now()
	c.timeoutEv = c.q.Engine().After(c.Timeout, func() { c.expireSlot(true) })
}

func (c *BFQ) expireSlot(timedOut bool) {
	bq := c.active
	if bq == nil {
		return
	}
	c.stopIdle()
	c.q.Engine().Cancel(c.timeoutEv)
	charge := c.served
	if timedOut && c.ChargeFullOnTimeout && charge < c.MaxBudget {
		charge = c.MaxBudget
	}
	bq.vtag += float64(charge) / bq.weight
	c.active = nil
	c.selectQueue()
	c.pump()
}

func (c *BFQ) pump() {
	bq := c.active
	if bq == nil {
		return
	}
	for bq.pending.Len() > 0 && bq.inFlight < c.MaxInFlight && c.q.InFlight() < c.q.Tags() {
		if c.served >= c.MaxBudget {
			c.expireSlot(false)
			return
		}
		b := bq.pending.Pop()
		c.served += (b.Size + sectorSize - 1) / sectorSize
		bq.inFlight++
		c.q.Issue(b)
	}
}

// Features implements FeatureReporter.
func (c *BFQ) Features() Features {
	return Features{WorkConserving: Yes, Proportional: Yes, CgroupControl: Yes}
}

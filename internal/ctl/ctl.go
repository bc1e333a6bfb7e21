// Package ctl implements the baseline Linux IO control mechanisms the paper
// compares IOCost against (Table 1):
//
//   - none: no scheduler, pass-through.
//   - mq-deadline: sector-sorted dispatch with read priority and write
//     starvation bounds; machine-wide, no cgroup control.
//   - kyber: per-op-type queue-depth throttling from latency feedback;
//     machine-wide, no cgroup control.
//   - blk-throttle: per-cgroup IOPS/byte limits; cgroup-aware but not
//     work-conserving.
//   - iolatency: per-cgroup latency targets enforced by scaling down the
//     queue depth of lower-priority groups; strict prioritization only.
//   - bfq: budget fair queueing — weighted round-robin over per-cgroup
//     queues in sector service, with sync-queue idling.
//
// Each controller implements blk.Controller; the IOCost controller itself
// lives in the core package.
package ctl

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
)

// Rating describes how fully a mechanism provides a feature in the paper's
// Table 1.
type Rating int8

const (
	// No means the feature is absent.
	No Rating = iota
	// Partial means the feature exists with significant caveats (the
	// table's "~").
	Partial
	// Yes means the feature is provided.
	Yes
)

func (r Rating) String() string {
	switch r {
	case Yes:
		return "yes"
	case Partial:
		return "~"
	default:
		return "no"
	}
}

// Features is the Table 1 row for a mechanism.
type Features struct {
	LowOverhead    Rating
	WorkConserving Rating
	MemoryAware    Rating
	Proportional   Rating
	CgroupControl  Rating
}

// FeatureReporter is implemented by controllers that know their Table 1 row.
type FeatureReporter interface {
	Features() Features
}

// None is the pass-through "no scheduler" configuration.
type None struct{ q *blk.Queue }

// NewNone returns the null controller.
func NewNone() *None { return &None{} }

// Name implements blk.Controller.
func (c *None) Name() string { return "none" }

// Attach implements blk.Controller.
func (c *None) Attach(q *blk.Queue) { c.q = q }

// Submit implements blk.Controller.
func (c *None) Submit(b *bio.Bio) { c.q.Issue(b) }

// Completed implements blk.Controller.
func (c *None) Completed(*bio.Bio) {}

// Features implements FeatureReporter.
func (c *None) Features() Features {
	return Features{LowOverhead: Yes, WorkConserving: Yes}
}

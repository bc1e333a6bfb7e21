// Package bio defines the block IO request that flows through the simulated
// block layer, mirroring the Linux bio: operation, offset, size, flags, the
// issuing cgroup and a completion callback.
package bio

import (
	"fmt"

	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/sim"
)

// Op is the request direction.
type Op uint8

const (
	// Read transfers data from the device.
	Read Op = iota
	// Write transfers data to the device.
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Flags carry request attributes that controllers care about.
type Flags uint16

const (
	// Sync marks a request some task is synchronously waiting on (reads,
	// fsync writes, swap-ins).
	Sync Flags = 1 << iota
	// Swap marks swap-out/swap-in IO generated by memory reclaim. Swap
	// writes are charged to the cgroup owning the memory, which may not be
	// the task that triggered reclaim (see the IOCost debt mechanism).
	Swap
	// Meta marks filesystem metadata/journal IO that cannot be delayed
	// without blocking unrelated cgroups (shared journal).
	Meta
)

// Has reports whether all bits in f are set.
func (f Flags) Has(q Flags) bool { return f&q == q }

// Status is the completion status of a bio. A bio starts each life-cycle
// attempt as StatusOK; the device (or a fault injector wrapping it) may mark
// it StatusError, and the block layer marks it StatusTimeout when its
// dispatch deadline fires before the device answers.
type Status uint8

const (
	// StatusOK means the request completed successfully.
	StatusOK Status = iota
	// StatusError means the device completed the request with an error
	// (the moral equivalent of BLK_STS_IOERR / EIO).
	StatusError
	// StatusTimeout means the block layer timed the request out before the
	// device completed it (blk_mq_rq_timed_out).
	StatusTimeout
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusError:
		return "error"
	case StatusTimeout:
		return "timeout"
	}
	return "status?"
}

// Bio is one block IO request. Controllers may hold a Bio arbitrarily long
// before issuing it to the device; the block layer records timestamps at each
// life-cycle stage so per-stage latency can be attributed.
// Its layout keeps it at 128 bytes, one malloc size class.
type Bio struct {
	Op Op
	// Status is the outcome of the current attempt. The queue resets it to
	// StatusOK when it requeues a failed bio for retry.
	Status Status
	Flags  Flags
	// Retries counts completed attempts beyond the first; the block
	// layer's RetryPolicy bounds it.
	Retries int32
	// Off is the starting device offset in bytes.
	Off int64
	// Size is the transfer length in bytes.
	Size int64
	// CG is the cgroup the request is charged to.
	CG *cgroup.Node

	// Submitted is when the bio entered the block layer.
	Submitted sim.Time
	// Issued is when the controller released it toward the device.
	Issued sim.Time
	// Dispatched is when the device began (queued) it.
	Dispatched sim.Time
	// Completed is when the device finished it.
	Completed sim.Time

	// OnDone, if non-nil, runs when the request finally completes — after
	// the last retry for bios that fail, not on intermediate attempts.
	OnDone func(*Bio)

	// Seq is an internal sequence number assigned by the block layer,
	// useful for deterministic tie-breaking in controllers. Retried bios
	// get a fresh Seq per attempt.
	Seq uint64

	// DeadlineEv is block-layer private state: the armed dispatch
	// deadline (RetryPolicy.Deadline) for the current attempt. Keeping it
	// on the bio spares the queue a per-dispatch map insert. Workloads
	// must not touch it.
	DeadlineEv sim.EventID

	// Charge is controller-private state: the cost a queued bio will be
	// charged at issue (the kernel's bi_iocost_cost).
	Charge float64

	next *Bio // the List link (bi_next), or the free-list link while pooled

	// pool, when non-nil, is the free list this bio recycles to after the
	// final completion (see pool.go); gen counts recycles so stale
	// pointers are detectable; inPool guards against double-put; listed
	// marks a bio on a List under -tags sanitizer (see list.go).
	pool   *Pool
	gen    uint32
	inPool bool
	listed bool
}

// Failed reports whether the current attempt ended in error or timeout.
func (b *Bio) Failed() bool { return b.Status != StatusOK }

// End returns the offset one past the last byte of the transfer.
func (b *Bio) End() int64 { return b.Off + b.Size }

// Latency returns the total submit-to-complete latency.
func (b *Bio) Latency() sim.Time { return b.Completed - b.Submitted }

// DeviceLatency returns the issue-to-complete latency (what the device and
// its queue contributed, excluding controller throttling).
func (b *Bio) DeviceLatency() sim.Time { return b.Completed - b.Issued }

// WaitLatency returns the time the bio spent held by the controller.
func (b *Bio) WaitLatency() sim.Time { return b.Issued - b.Submitted }

func (b *Bio) String() string {
	cg := "<none>"
	if b.CG != nil {
		cg = b.CG.Path()
	}
	return fmt.Sprintf("bio{%s %dB @%d cg=%s flags=%b}", b.Op, b.Size, b.Off, cg, b.Flags)
}

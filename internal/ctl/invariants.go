package ctl

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the sanitizer's SelfChecker interface
// (internal/check) for the baseline controllers. Each CheckInvariants is
// called at quiescent points — no controller code on the stack — and must
// only read state.

// CheckInvariants validates BFQ's service-slot and per-queue accounting:
// exactly the busy queues the scheduler believes in exist (active == nil
// implies no queue has pending work, or bios would hang), in-flight counts
// are balanced against the block layer, vtags are finite, and idling only
// happens on the in-service queue.
func (c *BFQ) CheckInvariants(fail func(msg string)) {
	failf := func(format string, args ...any) { fail(fmt.Sprintf(format, args...)) }
	total := 0
	for _, bq := range c.order {
		name := "<none>"
		if bq.cg != nil {
			name = bq.cg.Path()
		}
		if bq.inFlight < 0 {
			failf("bfq: queue %s in-flight count %d negative", name, bq.inFlight)
		}
		total += bq.inFlight
		if math.IsNaN(bq.vtag) || math.IsInf(bq.vtag, 0) || bq.vtag < 0 {
			failf("bfq: queue %s vtag %v negative or non-finite", name, bq.vtag)
		}
		if c.active == nil && bq.pending.Len() > 0 {
			failf("bfq: no queue in service but %s has %d pending bios — they would hang",
				name, bq.pending.Len())
		}
	}
	if want := c.q.InFlight() + c.q.Waiting(); total != want {
		failf("bfq: per-queue in-flight sum %d != block layer's %d", total, want)
	}
	if c.idling && c.active == nil {
		failf("bfq: idling with no queue in service")
	}
	if c.active != nil {
		// served may overshoot MaxBudget by one request before the slot
		// lazily expires, so only the sign is checkable.
		if c.served < 0 {
			failf("bfq: served %d sectors negative", c.served)
		}
		if c.slotStart > c.q.Now() {
			failf("bfq: service slot starts in the future (%v > %v)", c.slotStart, c.q.Now())
		}
	}
}

// CheckInvariants validates io.latency's depth throttling: depths are at
// least 1, in-flight counts non-negative, and a group with queued bios is
// actually at its depth limit — otherwise release() would have issued them
// and they would hang instead.
func (c *IOLatency) CheckInvariants(fail func(msg string)) {
	failf := func(format string, args ...any) { fail(fmt.Sprintf(format, args...)) }
	for i, st := range c.order {
		if st.depth < 1 {
			failf("iolatency: state %d depth %d < 1", i, st.depth)
		}
		if st.inFlight < 0 {
			failf("iolatency: state %d in-flight %d negative", i, st.inFlight)
		}
		if st.wait.Len() > 0 && st.inFlight < st.depth {
			failf("iolatency: state %d holds %d bios below its depth limit (%d in flight < depth %d) — they would hang",
				i, st.wait.Len(), st.inFlight, st.depth)
		}
	}
}

// CheckInvariants validates kyber's per-direction depth limits: limits stay
// within [1, tags], in-use counts are non-negative, and queued bios imply
// the direction is at its limit.
func (c *Kyber) CheckInvariants(fail func(msg string)) {
	failf := func(format string, args ...any) { fail(fmt.Sprintf(format, args...)) }
	dirs := [2]string{"read", "write"}
	for op, dir := range dirs {
		if c.depth[op] < 1 || c.depth[op] > c.q.Tags() {
			failf("kyber: %s depth %d outside [1, %d]", dir, c.depth[op], c.q.Tags())
		}
		if c.inUse[op] < 0 {
			failf("kyber: %s in-use count %d negative", dir, c.inUse[op])
		}
		if c.wait[op].Len() > 0 && c.inUse[op] < c.depth[op] {
			failf("kyber: %s holds %d bios below its depth limit (%d < %d) — they would hang",
				dir, c.wait[op].Len(), c.inUse[op], c.depth[op])
		}
	}
}

// CheckInvariants validates mq-deadline's sorted queues: the offset-sorted
// and FIFO views hold the same requests, the sorted view is actually
// sorted, and pending requests imply the dispatch limit is reached.
func (c *MQDeadline) CheckInvariants(fail func(msg string)) {
	failf := func(format string, args ...any) { fail(fmt.Sprintf(format, args...)) }
	for _, dir := range []struct {
		name string
		q    *sortedQ
	}{{"read", &c.reads}, {"write", &c.writes}} {
		if got, want := len(dir.q.byOff), len(dir.q.byTime); got != want {
			failf("mq-deadline: %s queue views disagree: %d sorted vs %d fifo", dir.name, got, want)
		}
		if !sort.SliceIsSorted(dir.q.byOff, func(i, j int) bool {
			return dir.q.byOff[i].Off < dir.q.byOff[j].Off
		}) {
			failf("mq-deadline: %s queue not sorted by offset", dir.name)
		}
	}
	if pending := len(c.reads.byOff) + len(c.writes.byOff); pending > 0 && c.q.InFlight() < c.limit() {
		failf("mq-deadline: %d requests pending below the dispatch limit (%d in flight < %d) — they would hang",
			pending, c.q.InFlight(), c.limit())
	}
	if c.batchLeft < 0 || c.batchLeft > c.Batch {
		failf("mq-deadline: batch counter %d outside [0, %d]", c.batchLeft, c.Batch)
	}
}

// CheckInvariants validates blk-throttle's token buckets: admission times
// never go negative (they may legitimately sit far in the future while a
// backlog drains through a tight limit).
func (c *Throttle) CheckInvariants(fail func(msg string)) {
	for cg, st := range c.state {
		for op := 0; op < 2; op++ {
			if st.nextIO[op] < 0 || st.nextByte[op] < 0 {
				fail(fmt.Sprintf("blk-throttle: %s has negative bucket time", cg.Path()))
			}
		}
	}
}

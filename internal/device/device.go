// Package device implements the simulated storage devices the controllers
// are evaluated on: SSD models with internal parallelism, write-buffer
// absorption and garbage-collection stalls; a spinning-disk model with seek
// and rotational delays; and remote/cloud block stores with provisioned-IOPS
// token buckets (AWS EBS, Google Cloud Persistent Disk profiles).
//
// A device accepts requests, services up to Parallelism of them concurrently
// (the device's internal channels/heads), and completes each after a
// model-specific service time. Latency therefore rises with occupancy, which
// is exactly the signal IO control reacts to.
package device

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ring"
	"github.com/iocost-sim/iocost/internal/sim"
)

// Device is a simulated block device.
type Device interface {
	// Name identifies the device model.
	Name() string
	// Submit queues b for service. done runs at completion time, after
	// b.Completed has been set.
	Submit(b *bio.Bio, done func(*bio.Bio))
	// InFlight returns the number of requests submitted but not completed.
	InFlight() int
	// Parallelism returns how many requests the device services
	// concurrently.
	Parallelism() int
}

// pending is a queued request, possibly a merge of several contiguous bios
// serviced as one device operation. Pendings are pooled per device (the
// nextFree link threads the free list) so the queue → service → complete
// cycle allocates nothing in steady state.
type pending struct {
	b    *bio.Bio
	done func(*bio.Bio)
	// extra holds requests merged into this one beyond b; size is the
	// merged transfer length (b.Size when nothing merged).
	extra []*pending
	size  int64

	// batchNext chains separate requests whose completions share one sim
	// event (same finish instant, consecutive seqs); see engine.begin.
	batchNext *pending

	nextFree *pending
}

// engine is the shared queueing/dispatch machinery: a FIFO in front of
// Parallelism service slots, with an optional token-bucket serialization
// point for provisioned-IOPS devices. Concrete models supply the
// service-time function.
type engine struct {
	eng   *sim.Engine
	name  string
	slots int
	busy  int
	// Reads and writes queue separately and are dispatched round-robin,
	// reflecting how real devices service reads from their internal
	// parallelism even while a deep write queue drains; without this a
	// write flood would head-of-line-block every read, which flash does
	// not do.
	queues  [2]ring.Queue[*pending]
	lastDir int

	// pfree is the pending free list; beginFn/finishFn are the pooled
	// event callbacks (built lazily on first Submit so the zero-ish
	// literal construction in the concrete models keeps working).
	pfree    *pending
	beginFn  func(any)
	finishFn func(any)

	// Completion batching, per direction: when a request's finish lands
	// at the same instant as a previously scheduled finish event that is
	// still the last event of its instant (sim.StillTail — no other event
	// at that instant has been scheduled since), the request rides
	// that event via the batchNext chain instead of scheduling its own.
	// Delivery order is provably identical — the chained completion runs
	// exactly where its own event would have — but a burst of parallel
	// same-cost completions costs one wheel operation, not one per
	// request. batchTail is the chain tail, batchAt the shared finish
	// instant, batchEv the carrying event.
	batchTail [2]*pending
	batchAt   [2]sim.Time
	batchEv   [2]sim.EventID

	// merge enables back-merging of contiguous same-cgroup requests in
	// the queue, as the block layer's elevator does. mergeLimit caps the
	// merged transfer size.
	merge      bool
	mergeLimit int64
	// Merges counts bios absorbed into earlier requests.
	Merges uint64

	// Lifetime per-direction completion counters, indexed by bio.Op.
	doneIOs   [2]uint64
	doneBytes [2]uint64

	// Token bucket: a request may not begin service before nextToken;
	// each request advances nextToken by tokNsPerIO + size*tokNsPerByte.
	// Zero values disable the bucket.
	tokNsPerIO   float64
	tokNsPerByte float64
	nextToken    sim.Time

	// service returns how long the request takes once it starts.
	service func(b *bio.Bio) sim.Time
}

func (d *engine) Name() string     { return d.name }
func (d *engine) Parallelism() int { return d.slots }
func (d *engine) InFlight() int    { return d.busy + d.queues[0].Len() + d.queues[1].Len() }

// DoneIOs returns the lifetime completed-request count for op.
func (d *engine) DoneIOs(op bio.Op) uint64 { return d.doneIOs[int(op)] }

// DoneBytes returns the lifetime completed bytes for op.
func (d *engine) DoneBytes(op bio.Op) uint64 { return d.doneBytes[int(op)] }

// QueueDepth returns the number of requests queued but not yet in service.
func (d *engine) QueueDepth() int { return d.queues[0].Len() + d.queues[1].Len() }

// mergeScan bounds how far back the elevator looks for a merge candidate.
const mergeScan = 64

// getPending takes a request from the free list, growing it on demand.
func (d *engine) getPending(b *bio.Bio, done func(*bio.Bio)) *pending {
	p := d.pfree
	if p == nil {
		p = &pending{}
	} else {
		d.pfree = p.nextFree
	}
	p.b, p.done, p.size = b, done, b.Size
	p.nextFree = nil
	return p
}

// putPending recycles a request (its merged extras have already been
// released individually). The extra backing array is retained.
func (d *engine) putPending(p *pending) {
	p.b, p.done = nil, nil
	p.extra = p.extra[:0]
	p.batchNext = nil
	p.nextFree = d.pfree
	d.pfree = p
}

func (d *engine) Submit(b *bio.Bio, done func(*bio.Bio)) {
	if d.finishFn == nil {
		d.finishFn = func(a any) { d.finish(a.(*pending)) }
		d.beginFn = func(a any) { d.begin(a.(*pending)) }
	}
	q := &d.queues[int(b.Op)]
	if d.merge {
		// Back-merge: look for a queued same-cgroup request whose end
		// matches this bio's offset, scanning recent entries the way an
		// elevator's merge lookup does.
		n := q.Len()
		lo := n - mergeScan
		if lo < 0 {
			lo = 0
		}
		for i := n - 1; i >= lo; i-- {
			cand := *q.At(i)
			if cand.b.CG == b.CG &&
				cand.b.Off+cand.size == b.Off &&
				cand.size+b.Size <= d.mergeLimit {
				cand.extra = append(cand.extra, d.getPending(b, done))
				cand.size += b.Size
				d.Merges++
				return
			}
		}
	}
	q.Push(d.getPending(b, done))
	d.dispatch()
}

func (d *engine) pop() (*pending, bool) {
	// Alternate directions when both have work.
	next := 1 - d.lastDir
	if d.queues[next].Empty() {
		next = d.lastDir
	}
	p, ok := d.queues[next].Pop()
	if !ok {
		return nil, false
	}
	d.lastDir = next
	return p, true
}

func (d *engine) dispatch() {
	tok := d.tokNsPerIO > 0 || d.tokNsPerByte > 0
	for d.busy < d.slots {
		p, ok := d.pop()
		if !ok {
			return
		}
		d.busy++

		if tok {
			start := d.eng.Now()
			if d.nextToken > start {
				start = d.nextToken
			}
			d.nextToken = start + sim.Time(d.tokNsPerIO+float64(p.b.Size)*d.tokNsPerByte)
			if start > d.eng.Now() {
				d.eng.AtCall(start, d.beginFn, p)
				continue
			}
		}
		d.begin(p)
	}
}

func (d *engine) begin(p *pending) {
	now := d.eng.Now()
	p.b.Dispatched = now
	for _, e := range p.extra {
		e.b.Dispatched = now
	}
	svcBio := p.b
	if p.size != p.b.Size {
		// Service the merged request as one transfer; the constituent
		// bios keep their own sizes for accounting.
		svcBio = &bio.Bio{Op: p.b.Op, Flags: p.b.Flags, Off: p.b.Off, Size: p.size, CG: p.b.CG}
	}
	svc := d.service(svcBio)
	if svc < 0 {
		svc = 0
	}
	at := now + svc
	op := int(p.b.Op)
	if at == d.batchAt[op] && d.batchTail[op] != nil && d.eng.StillTail(d.batchEv[op]) {
		d.batchTail[op].batchNext = p
		d.batchTail[op] = p
		return
	}
	d.batchEv[op] = d.eng.AtCall(at, d.finishFn, p)
	d.batchTail[op], d.batchAt[op] = p, at
}

// finish delivers every request riding this event: the head pending, then
// each batchNext-chained request, each processed exactly as if it had its
// own back-to-back event — the device's half of batched completion
// delivery. The pendings (and their merged extras) return to the free list
// afterwards.
func (d *engine) finish(p *pending) {
	for p != nil {
		next := p.batchNext
		p.batchNext = nil
		d.finishOne(p)
		p = next
	}
}

func (d *engine) finishOne(p *pending) {
	end := d.eng.Now()
	p.b.Completed = end
	d.busy--
	op := int(p.b.Op)
	d.doneIOs[op] += uint64(1 + len(p.extra))
	d.doneBytes[op] += uint64(p.size)
	// Dispatch before delivering the completion so the device stays
	// busy even if the completion handler submits more work.
	d.dispatch()
	p.done(p.b)
	for _, e := range p.extra {
		e.b.Completed = end
		e.done(e.b)
		d.putPending(e)
	}
	d.putPending(p)
}

// seqTracker detects sequential access per issuing cgroup, the same way a
// device's internal readahead/striping logic benefits contiguous streams.
// The per-cgroup stream state is a slice indexed by cgroup ID — the
// per-bio lookup is an array index, not a map hash; streams from a foreign
// hierarchy whose ID collides fall back to a side map.
type seqTracker struct {
	byID    []seqStream
	foreign map[*cgroup.Node]int64
	rootEnd int64 // stream for bios with no cgroup
	// One-entry stream cache: workloads issue runs of bios from the same
	// cgroup, so the previous bio's stream is almost always this bio's.
	lastCG *cgroup.Node
	lastSt *seqStream
}

type seqStream struct {
	cg  *cgroup.Node
	end int64
}

func newSeqTracker() *seqTracker {
	return &seqTracker{}
}

// sequential reports whether b continues the issuer's previous request and
// records b's end offset for the next check. Requests with no cgroup are
// keyed to the root stream (nil).
func (t *seqTracker) sequential(b *bio.Bio) bool {
	cg := b.CG
	if cg == nil {
		seq := t.rootEnd == b.Off && b.Off != 0
		t.rootEnd = b.End()
		return seq
	}
	if cg == t.lastCG {
		st := t.lastSt
		seq := st.end == b.Off && b.Off != 0
		st.end = b.End()
		return seq
	}
	id := cg.ID()
	if id >= len(t.byID) {
		grown := make([]seqStream, id+1)
		copy(grown, t.byID)
		t.byID = grown
		t.lastCG, t.lastSt = nil, nil // cache points into the old array
	}
	st := &t.byID[id]
	if st.cg == nil {
		st.cg = cg
	} else if st.cg != cg {
		// ID collision across hierarchies: keep this stream in the map.
		if t.foreign == nil {
			t.foreign = make(map[*cgroup.Node]int64)
		}
		seq := t.foreign[cg] == b.Off && b.Off != 0
		t.foreign[cg] = b.End()
		return seq
	}
	t.lastCG, t.lastSt = cg, st
	seq := st.end == b.Off && b.Off != 0
	st.end = b.End()
	return seq
}

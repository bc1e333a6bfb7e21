// Package blk implements the simulated block layer: the queue that accepts
// bios from workloads, hands them to an IO controller for throttling and
// scheduling decisions, dispatches them to the device under a bounded tag
// set, and delivers completions.
//
// The Controller interface is the single integration point all IO control
// mechanisms implement — iocost, iolatency, blk-throttle, bfq, mq-deadline,
// kyber and the null controller — so every experiment exercises identical
// submit/complete machinery and differs only in control policy, as in the
// kernel.
package blk

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
)

// Controller is an IO control mechanism. Submit is invoked for every bio
// entering the block layer; the controller must eventually pass the bio to
// Queue.Issue (immediately for pass-through mechanisms, later for throttling
// ones). Completed is invoked when the device finishes a bio.
type Controller interface {
	// Name identifies the mechanism ("iocost", "bfq", ...).
	Name() string
	// Attach binds the controller to its queue. It is called exactly once,
	// before any Submit.
	Attach(q *Queue)
	// Submit accepts a bio for throttling/scheduling.
	Submit(b *bio.Bio)
	// Completed notifies the controller of a completion.
	Completed(b *bio.Bio)
}

// Observer receives a callback at every bio life-cycle transition inside the
// queue. It exists for the invariant sanitizer (internal/check), the
// telemetry recorder (internal/trace, internal/metrics) and for test
// instrumentation such as golden dispatch-order traces; production paths
// register none and pay only a length check.
//
// A queue supports multiple observers (AddObserver); they are invoked in
// registration order at every hook, which keeps instrumented runs
// deterministic regardless of how many observers are stacked.
type Observer interface {
	// OnSubmit runs when a bio enters the block layer (Queue.Submit),
	// after its Submitted timestamp and sequence number are assigned and
	// its cgroup activated, before the controller sees it.
	OnSubmit(b *bio.Bio)
	// OnIssue runs when a controller releases a bio toward the device
	// (entry of Queue.Issue), before tag accounting.
	OnIssue(b *bio.Bio)
	// OnDispatch runs when the bio acquires a tag and is handed to the
	// device.
	OnDispatch(b *bio.Bio)
	// OnComplete runs when the device finishes the bio, before the
	// controller and the bio's OnDone are notified.
	OnComplete(b *bio.Bio)
}

// DefaultTags is the tag-set size (device queue depth exposed to the block
// layer) used unless configured otherwise, matching common NVMe settings.
const DefaultTags = 256

// RetryPolicy governs how the queue handles failed bios: error completions
// from the device and bios whose dispatch deadline fires before the device
// answers. The zero value disables both timeouts and retries, which keeps
// fault-free simulations byte-identical to builds without failure semantics.
type RetryPolicy struct {
	// MaxRetries bounds how many times a failed bio is resubmitted before
	// its failure is delivered to OnDone. 0 disables retries.
	MaxRetries int
	// Backoff is the delay before the first retry; it doubles on each
	// subsequent retry (exponential backoff). When retries are enabled and
	// Backoff is 0, DefaultBackoff is used.
	Backoff sim.Time
	// Deadline is the per-bio dispatch-to-completion budget. A bio still
	// uncompleted Deadline after dispatch is timed out: its tag is
	// released, the completion path runs with StatusTimeout, and the
	// eventual device completion is dropped as a late completion.
	// 0 disables timeouts.
	Deadline sim.Time
}

// DefaultBackoff is the first-retry delay used when a RetryPolicy enables
// retries without choosing one.
const DefaultBackoff = sim.Millisecond

// DefaultRetryPolicy mirrors the kernel's usual posture: a few bounded
// retries with a short backoff, and a generous 30s timeout.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Backoff: DefaultBackoff, Deadline: 30 * sim.Second}
}

// Queue is the per-device block layer instance.
type Queue struct {
	eng  *sim.Engine
	dev  device.Device
	ctl  Controller
	tags int

	inflight int
	tagWait  bio.List
	seq      uint64

	// Depletion accounting: time spent with issued bios waiting for tags,
	// the signal iocost uses for device saturation (§3.3). The windowed
	// pair resets on TakeDepletion (the planning path consumes it); the
	// lifetime pair only grows, for monitoring.
	depleted          bool
	depletedFrom      sim.Time
	depletionTime     sim.Time
	depletionHits     uint64
	depletionTimeLife sim.Time
	depletionHitsLife uint64

	// Busy accounting for utilization/work-conservation metrics.
	busyFrom sim.Time
	busyTime sim.Time

	// Aggregate completion-latency histograms (device latency: from Issue
	// to completion).
	ReadLat  *stats.Histogram
	WriteLat *stats.Histogram

	completions uint64
	issuedBytes uint64

	// iostat is per-cgroup accounting (see iostat.go), indexed by
	// cgroup ID for the fast path; iostatX catches nodes from a foreign
	// hierarchy whose ID collides (multi-hierarchy topologies).
	iostat  []*cgStat
	iostatX map[*cgroup.Node]*cgStat

	// pool is the queue's bio free list: workloads draw submissions from
	// it and finish recycles them after the final OnDone.
	pool *bio.Pool

	// obs are the registered life-cycle observers, invoked in
	// registration order at every hook.
	obs []Observer

	// completeFn is the device completion callback (bound once — a method
	// value built per dispatch would allocate); retryFn and timeoutF are
	// the pooled-event forms of the retry resubmit and deadline firing.
	completeFn func(*bio.Bio)
	retryFn    func(any)
	timeoutF   func(any)

	// Failure semantics (see RetryPolicy). The armed deadline event lives
	// on the bio itself (no per-dispatch map insert); timedOut tracks the
	// bios the device still holds after their deadline fired (see
	// lateState).
	policy   RetryPolicy
	timedOut map[*bio.Bio]lateState

	errors          uint64
	timeouts        uint64
	retries         uint64
	failures        uint64
	lateCompletions uint64
}

// lateState is a timed-out bio's ownership record. late counts the
// attempts whose deadline fired and whose device completion is still to
// come, so each of those late completions is dropped — a retried bio can
// time out again before its first attempt returns. done records that the
// final completion was delivered while late was non-zero: the queue then
// owns the bio until its last late completion and recycles it there.
type lateState struct {
	late int
	done bool
}

// New builds a queue over dev controlled by ctl. tags <= 0 selects
// DefaultTags.
func New(eng *sim.Engine, dev device.Device, ctl Controller, tags int) *Queue {
	return NewWithPool(eng, dev, ctl, tags, bio.NewPool(), nil, nil)
}

// NewWithPool is New drawing the queue's bios from pool, which a retired
// queue on the same engine may have used before (see bio.Pool.Reclaim).
// readLat and writeLat, when non-nil, are a retired queue's ReadLat and
// WriteLat: they are reset and become the new queue's, so a rebuilt
// queue allocates no sketch. Nil ones are allocated.
func NewWithPool(eng *sim.Engine, dev device.Device, ctl Controller, tags int, pool *bio.Pool,
	readLat, writeLat *stats.Histogram) *Queue {
	if tags <= 0 {
		tags = DefaultTags
	}
	q := &Queue{
		eng:      eng,
		dev:      dev,
		ctl:      ctl,
		tags:     tags,
		ReadLat:  recycledHistogram(readLat),
		WriteLat: recycledHistogram(writeLat),
		pool:     pool,
	}
	q.completeFn = q.complete
	q.retryFn = func(a any) {
		b := a.(*bio.Bio)
		b.Status = bio.StatusOK
		q.Submit(b)
	}
	ctl.Attach(q)
	return q
}

// recycledHistogram returns h reset, or a new histogram when h is nil.
func recycledHistogram(h *stats.Histogram) *stats.Histogram {
	if h == nil {
		return stats.NewHistogram()
	}
	h.Reset()
	return h
}

// BioPool returns the queue's bio free list. Workloads allocate their
// submissions from it; the block layer recycles each bio after its final
// completion, making the steady-state IO path allocation-free.
func (q *Queue) BioPool() *bio.Pool { return q.pool }

// Engine returns the simulation engine.
func (q *Queue) Engine() *sim.Engine { return q.eng }

// Device returns the underlying device.
func (q *Queue) Device() device.Device { return q.dev }

// Controller returns the bound controller.
func (q *Queue) Controller() Controller { return q.ctl }

// Now returns the current simulated time.
func (q *Queue) Now() sim.Time { return q.eng.Now() }

// Tags returns the tag-set size.
func (q *Queue) Tags() int { return q.tags }

// InFlight returns the number of bios holding tags.
func (q *Queue) InFlight() int { return q.inflight }

// Waiting returns the number of issued bios parked waiting for a tag.
func (q *Queue) Waiting() int { return q.tagWait.Len() }

// SetObserver replaces the queue's observer set with exactly o (nil clears
// every observer). Prefer AddObserver; this exists for tests that want a
// clean slate.
func (q *Queue) SetObserver(o Observer) {
	q.obs = q.obs[:0]
	if o != nil {
		q.obs = append(q.obs, o)
	}
}

// AddObserver registers o as a life-cycle observer. Observers run in
// registration order at every hook, so stacking the sanitizer and the
// telemetry recorder on one queue is deterministic.
func (q *Queue) AddObserver(o Observer) {
	if o == nil {
		return
	}
	q.obs = append(q.obs, o)
}

// Observers returns a copy of the registered observers in invocation
// order. Returning a copy keeps callers from mutating observer order (or
// aliasing future registrations) out from under the fan-out.
func (q *Queue) Observers() []Observer {
	if len(q.obs) == 0 {
		return nil
	}
	out := make([]Observer, len(q.obs))
	copy(out, q.obs)
	return out
}

// SetRetryPolicy configures failure handling. Call before the simulation
// runs; changing the policy mid-flight leaves already-armed deadlines on
// their old schedule.
func (q *Queue) SetRetryPolicy(p RetryPolicy) {
	if p.MaxRetries > 0 && p.Backoff <= 0 {
		p.Backoff = DefaultBackoff
	}
	q.policy = p
	if p.Deadline > 0 && q.timedOut == nil {
		q.timedOut = make(map[*bio.Bio]lateState)
	}
}

// RetryPolicy returns the active failure-handling policy.
func (q *Queue) RetryPolicy() RetryPolicy { return q.policy }

// Errors returns the number of error completions delivered by the device
// (every attempt counts, including ones that were then retried).
func (q *Queue) Errors() uint64 { return q.errors }

// Timeouts returns the number of dispatch deadlines that fired.
func (q *Queue) Timeouts() uint64 { return q.timeouts }

// Retries returns the number of failed attempts that were requeued.
func (q *Queue) Retries() uint64 { return q.retries }

// Failures returns the number of bios whose failure was delivered to OnDone
// after exhausting retries.
func (q *Queue) Failures() uint64 { return q.failures }

// LateCompletions returns the number of device completions dropped because
// the bio had already been timed out.
func (q *Queue) LateCompletions() uint64 { return q.lateCompletions }

// Completions returns the total number of completed bios.
func (q *Queue) Completions() uint64 { return q.completions }

// IssuedBytes returns the total bytes issued to the device.
func (q *Queue) IssuedBytes() uint64 { return q.issuedBytes }

// Submit passes b into the block layer. The controller decides when it
// reaches the device.
func (q *Queue) Submit(b *bio.Bio) {
	b.Submitted = q.eng.Now()
	b.Seq = q.seq
	q.seq++
	if b.CG != nil {
		b.CG.Activate()
	}
	if len(q.obs) != 0 {
		q.notifySubmit(b)
	}
	q.ctl.Submit(b)
}

// notify* keep the observer fan-out off the fast path: production runs
// register no observers and pay one length check per hook.
func (q *Queue) notifySubmit(b *bio.Bio) {
	for _, o := range q.obs {
		o.OnSubmit(b)
	}
}

func (q *Queue) notifyIssue(b *bio.Bio) {
	for _, o := range q.obs {
		o.OnIssue(b)
	}
}

func (q *Queue) notifyDispatch(b *bio.Bio) {
	for _, o := range q.obs {
		o.OnDispatch(b)
	}
}

func (q *Queue) notifyComplete(b *bio.Bio) {
	for _, o := range q.obs {
		o.OnComplete(b)
	}
}

// Issue sends b toward the device; controllers call this when they admit a
// bio. If all tags are in use the bio waits, and the wait is recorded as
// queue depletion.
func (q *Queue) Issue(b *bio.Bio) {
	b.Issued = q.eng.Now()
	if len(q.obs) != 0 {
		q.notifyIssue(b)
	}
	if q.inflight >= q.tags {
		q.tagWait.Push(b)
		q.depletionHits++
		q.depletionHitsLife++
		if !q.depleted {
			q.depleted = true
			q.depletedFrom = q.eng.Now()
		}
		return
	}
	q.dispatch(b)
}

func (q *Queue) dispatch(b *bio.Bio) {
	if q.inflight == 0 {
		q.busyFrom = q.eng.Now()
	}
	q.inflight++
	q.issuedBytes += uint64(b.Size)
	// Stamp hand-off to the device; the device re-stamps when service
	// actually begins. This keeps Dispatched fresh per attempt so a retried
	// bio timed out before service never carries a stale timestamp.
	b.Dispatched = q.eng.Now()
	if len(q.obs) != 0 {
		q.notifyDispatch(b)
	}
	if q.policy.Deadline > 0 {
		b.DeadlineEv = q.eng.AfterCall(q.policy.Deadline, q.timeoutFn(), b)
	}
	q.dev.Submit(b, q.completeFn)
}

// timeoutFn returns the pooled-event timeout callback, built lazily once
// (deadlines are off in the default policy, so most queues never pay for
// it).
func (q *Queue) timeoutFn() func(any) {
	if q.timeoutF == nil {
		q.timeoutF = func(a any) { q.timeout(a.(*bio.Bio)) }
	}
	return q.timeoutF
}

// complete is the device's completion callback. Late completions of bios the
// queue already timed out are dropped — the last one recycles the bio if
// its final completion was already delivered; everything else flows to
// finish.
func (q *Queue) complete(b *bio.Bio) {
	if q.timedOut != nil {
		if st, ok := q.timedOut[b]; ok {
			q.lateCompletions++
			st.late--
			if st.late > 0 {
				q.timedOut[b] = st
				return
			}
			delete(q.timedOut, b)
			if st.done {
				bio.Release(b)
			}
			return
		}
	}
	if q.policy.Deadline > 0 {
		q.eng.Cancel(b.DeadlineEv)
		b.DeadlineEv = sim.EventID{}
	}
	q.finish(b)
}

// timeout fires when a dispatched bio outlives the policy deadline: the tag
// is reclaimed and the completion path runs with StatusTimeout, as
// blk_mq_rq_timed_out would. The device keeps servicing the request; its
// eventual completion is dropped (and counted) in complete. Until then the
// device still holds the bio, so finish keeps it out of its pool and
// complete recycles it.
func (q *Queue) timeout(b *bio.Bio) {
	b.DeadlineEv = sim.EventID{}
	st := q.timedOut[b]
	st.late++
	q.timedOut[b] = st
	q.timeouts++
	b.Status = bio.StatusTimeout
	b.Completed = q.eng.Now()
	q.finish(b)
}

// finish runs the completion path: observer + controller notification, tag
// release, accounting, and — for failed attempts with retries remaining —
// exponential-backoff requeue instead of OnDone delivery. Pooled bios are
// recycled once the final OnDone has returned, or, if the device still
// holds a timed-out attempt, at its last late completion.
func (q *Queue) finish(b *bio.Bio) {
	q.inflight--
	q.completions++
	if b.Status == bio.StatusError {
		q.errors++
	}
	if len(q.obs) != 0 {
		q.notifyComplete(b)
	}
	if q.inflight == 0 {
		q.busyTime += q.eng.Now() - q.busyFrom
	}

	if next := q.tagWait.Pop(); next != nil {
		if q.tagWait.Empty() && q.depleted {
			q.depleted = false
			d := q.eng.Now() - q.depletedFrom
			q.depletionTime += d
			q.depletionTimeLife += d
		}
		q.dispatch(next)
	}

	lat := b.DeviceLatency()
	if b.Op == bio.Read {
		q.ReadLat.Observe(int64(lat))
	} else {
		q.WriteLat.Observe(int64(lat))
	}
	if b.CG != nil {
		q.statFor(b.CG).account(b)
	}

	q.ctl.Completed(b)

	if b.Status != bio.StatusOK && int(b.Retries) < q.policy.MaxRetries {
		// Requeue with exponential backoff. The bio re-enters Submit as a
		// fresh attempt — every controller observes and is charged for the
		// retried work, which is exactly the graceful-degradation signal
		// iocost's QoS logic feeds on.
		delay := q.policy.Backoff << uint(b.Retries)
		b.Retries++
		q.retries++
		q.eng.AfterCall(delay, q.retryFn, b)
		return
	}
	if b.Status != bio.StatusOK {
		q.failures++
	}
	if b.OnDone != nil {
		b.OnDone(b)
	}
	// The bio's life is over: OnDone ran above, so the submitter has had
	// its look. Recycle it if it came from a pool, unless the device still
	// holds a timed-out attempt: its last late completion recycles it.
	if q.timedOut != nil {
		if st, ok := q.timedOut[b]; ok {
			st.done = true
			q.timedOut[b] = st
			return
		}
	}
	bio.Release(b)
}

// TakeDepletion returns the accumulated tag-depletion time and hit count
// since the previous call, closing any open depletion interval at now.
func (q *Queue) TakeDepletion() (sim.Time, uint64) {
	if q.depleted {
		now := q.eng.Now()
		d := now - q.depletedFrom
		q.depletionTime += d
		q.depletionTimeLife += d
		q.depletedFrom = now
	}
	t, h := q.depletionTime, q.depletionHits
	q.depletionTime, q.depletionHits = 0, 0
	return t, h
}

// DepletionTotals returns the lifetime tag-depletion time and hit count,
// including any open depletion interval, without consuming the windowed
// accounting TakeDepletion serves.
func (q *Queue) DepletionTotals() (sim.Time, uint64) {
	t := q.depletionTimeLife
	if q.depleted {
		t += q.eng.Now() - q.depletedFrom
	}
	return t, q.depletionHitsLife
}

// BusyTime returns the cumulative time the device had at least one request
// in flight, up to now.
func (q *Queue) BusyTime() sim.Time {
	t := q.busyTime
	if q.inflight > 0 {
		t += q.eng.Now() - q.busyFrom
	}
	return t
}

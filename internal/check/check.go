// Package check implements the simulation sanitizer: an invariant-checking
// layer that hooks the block-layer bio life-cycle and asserts, at every
// event, that
//
//   - the bio state machine is legal — every bio moves submit → issue →
//     dispatch → complete exactly once, none is lost, duplicated or
//     completed twice, and its life-cycle timestamps are monotone;
//   - the cgroup weight tree is consistent — per-level hierarchical weight
//     sums stay within 1.0, the active set matches its cached counters, and
//     the hierarchy generation only moves forward;
//   - the simulated clock is monotone and per-device in-flight counts stay
//     balanced within the tag budget;
//   - any controller that knows deeper invariants about its own state
//     (IOCost's vtime/budget/debt conservation, BFQ's slot accounting, ...)
//     holds them whenever the controller is quiescent.
//
// The sanitizer is a Controller decorator: Wrap an existing blk.Controller
// and hand the result to blk.New. It is behavior-preserving — it only reads
// state — so a sanitized run executes the exact same schedule as an
// unsanitized one, which is what makes failures replayable by seed.
package check

import (
	"fmt"
	"sort"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/sim"
)

// SelfChecker is implemented by controllers that can validate their own
// internal invariants. CheckInvariants must only read state and must call
// fail once per violated invariant; it is invoked only at points where the
// controller is quiescent (no controller code on the call stack).
type SelfChecker interface {
	CheckInvariants(fail func(msg string))
}

// Options configures a Sanitizer.
type Options struct {
	// Hier, when non-nil, enables the cgroup hierarchy checks.
	Hier *cgroup.Hierarchy
	// Fail receives every violation. Nil panics on the first violation,
	// which is the right default inside tests.
	Fail func(msg string)
	// DeepEvery runs the expensive quiescent-state checks (hierarchy walk,
	// controller self-check) on every Nth life-cycle event; the per-bio
	// state-machine checks always run. 0 selects 1 (every event).
	DeepEvery int
	// MaxViolations caps how many violations are reported before further
	// ones are dropped (a single corrupted run can cascade into thousands).
	// 0 selects 32.
	MaxViolations int
}

// Bio life-cycle states tracked by the sanitizer.
const (
	stSubmitted uint8 = iota + 1
	stIssued
	stDispatched
)

// bioTrack is the sanitizer's per-bio record: life-cycle state plus the
// pool generation observed at submit.
type bioTrack struct {
	st  uint8
	gen uint32
}

func stateName(st uint8) string {
	switch st {
	case stSubmitted:
		return "submitted"
	case stIssued:
		return "issued"
	case stDispatched:
		return "dispatched"
	default:
		return "untracked"
	}
}

// Sanitizer wraps a blk.Controller and checks invariants at every bio
// life-cycle event. It implements both blk.Controller and blk.Observer.
type Sanitizer struct {
	inner blk.Controller
	q     *blk.Queue
	opts  Options

	// Bio state machine. Each tracked bio also records its pool recycle
	// generation at submit: if the generation moves while the bio is in
	// flight, the pool recycled it under a live request — a use-after-free
	// the pointer identity alone cannot reveal, because the recycled bio
	// occupies the same address.
	live map[*bio.Bio]bioTrack

	// Counters; dispatched-completed must mirror the queue's in-flight
	// count, issued-dispatched its tag-wait backlog.
	submitted  uint64
	issued     uint64
	dispatched uint64
	completed  uint64

	lastNow sim.Time
	lastGen uint64
	events  uint64

	// depth counts nested controller invocations (a completion callback
	// that submits new IO re-enters Submit); deep checks only run when the
	// outermost invocation returns, when the controller is quiescent.
	depth int

	violations int
	dropped    int
}

// Wrap returns a sanitizing decorator around inner.
func Wrap(inner blk.Controller, opts Options) *Sanitizer {
	if opts.DeepEvery <= 0 {
		opts.DeepEvery = 1
	}
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = 32
	}
	return &Sanitizer{
		inner: inner,
		opts:  opts,
		live:  make(map[*bio.Bio]bioTrack),
	}
}

// Inner returns the wrapped controller.
func (s *Sanitizer) Inner() blk.Controller { return s.inner }

// Violations returns how many invariant violations have been reported.
func (s *Sanitizer) Violations() int { return s.violations }

func (s *Sanitizer) fail(format string, args ...any) {
	s.violations++
	if s.violations > s.opts.MaxViolations {
		s.dropped++
		return
	}
	msg := fmt.Sprintf("check[%s @%v]: ", s.inner.Name(), s.now()) + fmt.Sprintf(format, args...)
	if s.opts.Fail != nil {
		s.opts.Fail(msg)
		return
	}
	panic(msg)
}

func (s *Sanitizer) now() sim.Time {
	if s.q == nil {
		return 0
	}
	return s.q.Now()
}

// Name implements blk.Controller, transparently.
func (s *Sanitizer) Name() string { return s.inner.Name() }

// Attach implements blk.Controller: it registers the sanitizer as a queue
// observer and attaches the wrapped controller. Other observers (telemetry
// recorders, golden-trace instrumentation) can coexist on the same queue.
func (s *Sanitizer) Attach(q *blk.Queue) {
	s.q = q
	q.AddObserver(s)
	s.inner.Attach(q)
}

// Submit implements blk.Controller.
func (s *Sanitizer) Submit(b *bio.Bio) {
	s.tick()
	if tr, ok := s.live[b]; ok {
		s.fail("bio %v resubmitted while still %s", b, stateName(tr.st))
	}
	if b.Size < 0 {
		s.fail("bio %v has negative size", b)
	}
	if b.Off < 0 {
		s.fail("bio %v has negative offset", b)
	}
	if b.Status != bio.StatusOK {
		s.fail("bio %v submitted carrying failed status %v", b, b.Status)
	}
	if b.Retries < 0 || int(b.Retries) > s.q.RetryPolicy().MaxRetries {
		s.fail("bio %v retry count %d outside policy bound %d",
			b, b.Retries, s.q.RetryPolicy().MaxRetries)
	}
	s.live[b] = bioTrack{st: stSubmitted, gen: b.Gen()}
	s.submitted++

	s.depth++
	s.inner.Submit(b)
	s.depth--
	s.quiescent()
}

// Completed implements blk.Controller.
func (s *Sanitizer) Completed(b *bio.Bio) {
	s.depth++
	s.inner.Completed(b)
	s.depth--
	s.quiescent()
}

// OnSubmit implements blk.Observer. Submission checks live in the
// Controller wrapper's Submit, which also brackets the controller's own
// work; the observer hook has nothing left to verify.
func (s *Sanitizer) OnSubmit(*bio.Bio) {}

// OnIssue implements blk.Observer.
func (s *Sanitizer) OnIssue(b *bio.Bio) {
	s.tick()
	tr := s.live[b]
	s.checkGen(b, tr)
	switch tr.st {
	case stSubmitted:
		tr.st = stIssued
		s.live[b] = tr
	case 0:
		s.fail("bio %v issued without being submitted", b)
	default:
		s.fail("bio %v issued twice (state %s)", b, stateName(tr.st))
	}
	s.issued++
	if b.Issued < b.Submitted {
		s.fail("bio %v issued before submission (%v < %v)", b, b.Issued, b.Submitted)
	}
}

// OnDispatch implements blk.Observer.
func (s *Sanitizer) OnDispatch(b *bio.Bio) {
	s.tick()
	tr := s.live[b]
	s.checkGen(b, tr)
	switch tr.st {
	case stIssued:
		tr.st = stDispatched
		s.live[b] = tr
	case 0:
		s.fail("bio %v dispatched without being issued", b)
	default:
		s.fail("bio %v dispatched from state %s", b, stateName(tr.st))
	}
	s.dispatched++
	if got, tags := s.q.InFlight(), s.q.Tags(); got > tags {
		s.fail("in-flight count %d exceeds tag budget %d", got, tags)
	}
}

// OnComplete implements blk.Observer.
func (s *Sanitizer) OnComplete(b *bio.Bio) {
	s.tick()
	tr := s.live[b]
	s.checkGen(b, tr)
	switch tr.st {
	case stDispatched:
		delete(s.live, b)
	case 0:
		s.fail("bio %v completed twice or never submitted", b)
	default:
		s.fail("bio %v completed from state %s", b, stateName(tr.st))
	}
	s.completed++
	if !(b.Submitted <= b.Issued && b.Issued <= b.Dispatched && b.Dispatched <= b.Completed) {
		s.fail("bio %v life-cycle timestamps out of order: sub=%v iss=%v disp=%v comp=%v",
			b, b.Submitted, b.Issued, b.Dispatched, b.Completed)
	}
	// Error life-cycle rules: a timeout can only come from an armed
	// deadline, and a timed-out bio's perceived device latency is at least
	// that deadline (it waited the whole budget).
	if b.Status == bio.StatusTimeout {
		policy := s.q.RetryPolicy()
		if policy.Deadline <= 0 {
			s.fail("bio %v timed out but the queue has no deadline armed", b)
		} else if b.DeviceLatency() < policy.Deadline {
			s.fail("bio %v timed out after only %v of a %v deadline",
				b, b.DeviceLatency(), policy.Deadline)
		}
	}
	if int(b.Retries) > s.q.RetryPolicy().MaxRetries {
		s.fail("bio %v completed with retry count %d beyond policy bound %d",
			b, b.Retries, s.q.RetryPolicy().MaxRetries)
	}
	if s.q.InFlight() < 0 {
		s.fail("in-flight count went negative: %d", s.q.InFlight())
	}
}

// checkGen fails if a tracked bio's pool generation moved since submit —
// the pool recycled it while the block layer still considered it in flight.
func (s *Sanitizer) checkGen(b *bio.Bio, tr bioTrack) {
	if tr.st != 0 && b.Gen() != tr.gen {
		s.fail("bio %v recycled while in flight (%s): pool generation %d at submit, %d now — use-after-free",
			b, stateName(tr.st), tr.gen, b.Gen())
	}
}

// tick runs the checks shared by every life-cycle event: clock monotonicity
// and hierarchy generation monotonicity.
func (s *Sanitizer) tick() {
	s.events++
	now := s.now()
	if now < s.lastNow {
		s.fail("virtual clock moved backwards: %v after %v", now, s.lastNow)
	}
	s.lastNow = now
	if s.opts.Hier != nil {
		if gen := s.opts.Hier.Generation(); gen < s.lastGen {
			s.fail("hierarchy generation moved backwards: %d after %d", gen, s.lastGen)
		} else {
			s.lastGen = gen
		}
	}
}

// quiescent runs the deep checks when the outermost controller invocation
// has returned and the event sampling says it is this event's turn.
func (s *Sanitizer) quiescent() {
	if s.depth != 0 || s.events%uint64(s.opts.DeepEvery) != 0 {
		return
	}
	s.CheckNow()
}

// CheckNow runs every deep check immediately. The controller must be
// quiescent; tests and the fuzz harness may call it at any point between
// engine events.
func (s *Sanitizer) CheckNow() {
	// Conservation across the queue: every issued-but-undispatched bio is
	// in the tag-wait queue, every dispatched-but-incomplete one holds a
	// tag.
	if got, want := uint64(s.q.InFlight()), s.dispatched-s.completed; got != want {
		s.fail("in-flight mismatch: queue reports %d, life-cycle accounting says %d", got, want)
	}
	if got, want := uint64(s.q.Waiting()), s.issued-s.dispatched; got != want {
		s.fail("tag-wait mismatch: queue reports %d, life-cycle accounting says %d", got, want)
	}
	if s.opts.Hier != nil {
		CheckHierarchy(s.opts.Hier, func(msg string) { s.fail("%s", msg) })
	}
	if sc, ok := s.inner.(SelfChecker); ok {
		sc.CheckInvariants(func(msg string) { s.fail("%s", msg) })
	}
}

// Outstanding returns the number of bios submitted but not yet completed.
func (s *Sanitizer) Outstanding() int { return len(s.live) }

// CheckDrained asserts that no bio is outstanding — the end-of-run "no bio
// lost" check. It reports up to three stuck bios for diagnosis.
func (s *Sanitizer) CheckDrained() {
	if len(s.live) == 0 {
		return
	}
	// Order the report deterministically — map iteration order must not
	// leak into violation messages, or replays would diff against themselves.
	stuck := make([]*bio.Bio, 0, len(s.live))
	for b := range s.live {
		stuck = append(stuck, b)
	}
	sort.Slice(stuck, func(i, j int) bool {
		a, b := stuck[i], stuck[j]
		if a.Submitted != b.Submitted {
			return a.Submitted < b.Submitted
		}
		if a.Off != b.Off {
			return a.Off < b.Off
		}
		return a.Size < b.Size
	})
	if len(stuck) > 3 {
		stuck = stuck[:3]
	}
	for _, b := range stuck {
		s.fail("bio lost: %v stuck in state %s since submit=%v", b, stateName(s.live[b].st), b.Submitted)
	}
	s.fail("%d bios lost in total (submitted=%d issued=%d dispatched=%d completed=%d)",
		len(s.live), s.submitted, s.issued, s.dispatched, s.completed)
}

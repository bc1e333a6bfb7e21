// Package sim implements the discrete-event simulation engine underlying the
// whole repository: a virtual clock in nanoseconds and a hierarchical
// timing-wheel scheduler (see wheel.go for the internals).
//
// All simulated components — devices, controllers, workloads, the memory
// subsystem — schedule callbacks on a single *Engine. The engine runs events
// in (time, sequence) order, so simulations are fully deterministic.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time int64

// Common durations, mirroring time.Duration but in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

const maxTime = Time(math.MaxInt64)

// Duration converts t to a time.Duration for formatting.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// EventID identifies a scheduled event so it can be cancelled. The zero
// value is valid and refers to no event.
type EventID struct {
	e   *event
	gen uint32
}

// Engine is the discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now  Time
	seq  uint64
	nrun uint64

	// cur is the wheel cursor: no pending event is earlier. It equals now
	// whenever the engine is not inside popNext.
	cur   Time
	count int
	// wheel0 is the bottom level's ring of (at, seq)-sorted buckets;
	// wheelHi holds the coarser levels 1..numLevels-1. See wheel.go.
	wheel0  [level0Buckets]slot
	wheelHi [numLevels - 1][slotsPerLevel]slot
	// occupied0 marks non-empty level-0 buckets and summary0 its non-zero
	// words: the next-event scan is at most two find-first-set steps.
	occupied0  [level0Words]uint64
	summary0   uint64
	occupiedHi [numLevels - 1][wordsPerLevel]uint64
	levelCount [numLevels]int
	overflow   []*event
	free       *event

	// tHi caches the earliest occupied slot base across levels 1+ (an
	// absolute time, so it stays valid as the cursor moves within its
	// current slots); hiDirty forces recomputation after any
	// higher-level mutation. See popNext.
	tHi     Time
	hiDirty bool
}

// New returns an empty engine at time zero.
func New() *Engine {
	return &Engine{hiDirty: true}
}

// Reset puts e back in New's state in place: time zero, sequence and run
// counters cleared, no event pending. Every pending event is released into
// the engine's event pool, as Cancel would release it, so outstanding
// EventIDs go inert and no callback or argument of the old run stays
// reachable; the pool's blocks and the wheel's arrays are kept, which is
// what makes a reset engine cheaper than a fresh one. The callbacks'
// owners (tickers, devices, controllers) are not told: Reset is for
// retiring everything built on e at once.
func (e *Engine) Reset() {
	for w, word := range e.occupied0[:] {
		for ; word != 0; word &= word - 1 {
			s := &e.wheel0[w<<6+bits.TrailingZeros64(word)]
			e.releaseList(*s)
			*s = nil
		}
	}
	for l := range e.occupiedHi {
		for w, word := range e.occupiedHi[l][:] {
			for ; word != 0; word &= word - 1 {
				s := &e.wheelHi[l][w<<6+bits.TrailingZeros64(word)]
				e.releaseList(*s)
				*s = nil
			}
		}
	}
	for i, ev := range e.overflow {
		e.release(ev)
		e.overflow[i] = nil
	}
	e.overflow = e.overflow[:0]
	e.occupied0, e.summary0 = [level0Words]uint64{}, 0
	e.occupiedHi, e.levelCount = [numLevels - 1][wordsPerLevel]uint64{}, [numLevels]int{}
	e.now, e.seq, e.nrun, e.cur, e.count = 0, 0, 0, 0, 0
	e.tHi, e.hiDirty = 0, true
}

// releaseList releases every event of one wheel slot's list.
func (e *Engine) releaseList(ev *event) {
	for ev != nil {
		next := ev.next
		e.release(ev)
		ev = next
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// EventsRun reports how many events have executed so far.
func (e *Engine) EventsRun() uint64 { return e.nrun }

// Pending reports how many live events are scheduled. Cancelled events are
// removed immediately and do not count.
func (e *Engine) Pending() int { return e.count }

// StillTail reports whether id refers to a pending event that sits in the
// wheel's bottom level as the last event of its instant. A level-0 bucket
// is (at, seq)-sorted, so a true result guarantees no other event will run
// between this one and work appended to run directly after its callback —
// piggybacking on it is indistinguishable from scheduling a fresh event at
// the same instant. Events parked on coarser levels or in the overflow
// heap return false (their slots are unordered), as do events that already
// ran or were cancelled.
func (e *Engine) StillTail(id EventID) bool {
	ev := id.e
	return ev != nil && ev.gen == id.gen && ev.level == 0 && (ev.next == nil || ev.next.at != ev.at)
}

// At schedules fn to run at the absolute time at. Scheduling in the past
// (before Now) panics: it always indicates a simulation bug.
func (e *Engine) At(at Time, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	e.seq++
	ev.fn = fn
	e.count++
	e.enqueue(ev)
	return EventID{ev, ev.gen}
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AtCall schedules fn(arg) at the absolute time at. Unlike At, the callback
// and its argument are stored directly in the pooled event, so hot paths
// that would otherwise build a fresh capturing closure per event (device
// completions, controller waiter kicks) schedule without allocating: store
// the fn once (a field, not a method value) and pass the varying state as
// arg.
func (e *Engine) AtCall(at Time, fn func(any), arg any) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	e.seq++
	ev.afn = fn
	ev.arg = arg
	e.count++
	e.enqueue(ev)
	return EventID{ev, ev.gen}
}

// AfterCall schedules fn(arg) d nanoseconds from now without allocating a
// closure; see AtCall.
func (e *Engine) AfterCall(d Time, fn func(any), arg any) EventID {
	if d < 0 {
		d = 0
	}
	return e.AtCall(e.now+d, fn, arg)
}

// Cancel prevents a scheduled event from running, removing it immediately.
// It reports whether the event was actually descheduled: cancelling an
// event that already ran, was already cancelled, or a zero EventID returns
// false.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.e
	if ev == nil || ev.gen != id.gen {
		return false
	}
	// Cancel on the owning engine even if called through another handle.
	o := ev.owner
	switch {
	case ev.level >= 0:
		o.unlinkWheel(ev)
	case ev.hidx >= 0:
		o.heapRemove(int(ev.hidx))
	default:
		return false
	}
	o.count--
	o.release(ev)
	return true
}

// run executes a popped event. The event is recycled before its callback
// runs, so the callback can schedule without allocating; outstanding
// EventIDs are invalidated by the generation bump in release.
func (e *Engine) run(ev *event) {
	e.now = ev.at
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	e.release(ev)
	e.nrun++
	if afn != nil {
		afn(arg)
		return
	}
	fn()
}

// Step runs the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	ev := e.popNext(maxTime)
	if ev == nil {
		return false
	}
	e.run(ev)
	return true
}

// RunUntil executes events up to and including deadline, then advances the
// clock to exactly deadline.
func (e *Engine) RunUntil(deadline Time) {
	for {
		ev := e.popNext(deadline)
		if ev == nil {
			break
		}
		e.run(ev)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Ticker invokes fn every period until Stop is called. The first invocation
// occurs one period from the time of NewTicker.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func()
	id      EventID
	tick    func() // allocated once; rescheduling is allocation-free
	stopped bool
}

// NewTicker schedules fn to run every period. period must be positive.
func (e *Engine) NewTicker(period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.id = t.eng.After(t.period, t.tick)
		}
	}
	t.id = e.After(period, t.tick)
	return t
}

// Stop cancels the ticker. It reports whether a pending tick was
// descheduled; stopping an already-stopped ticker, or stopping from inside
// the tick callback itself (whose event has already fired), returns false.
func (t *Ticker) Stop() bool {
	if t.stopped {
		return false
	}
	t.stopped = true
	return t.eng.Cancel(t.id)
}

// SetPeriod changes the tick period, taking effect when the next tick is
// scheduled: the currently pending tick still fires at its original time.
func (t *Ticker) SetPeriod(p Time) {
	if p <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.period = p
}

// Period returns the current tick period.
func (t *Ticker) Period() Time { return t.period }

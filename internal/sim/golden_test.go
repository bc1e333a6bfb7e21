package sim

import (
	"container/heap"
	"testing"
)

// The golden-trace tests pin the engine's exact event execution order. The
// hashes below were captured from the original binary-heap engine; the
// timing-wheel engine must reproduce them bit for bit, which proves the
// rewrite preserves (time, seq) FIFO semantics for every simulation in the
// repo.

// traceHash runs a deterministic scheduling storm — short/mid/far horizons,
// zero-delay events, same-time bursts, cancels, tickers with SetPeriod and
// Stop — and folds (now, event-id) of every executed event into an FNV-1a
// hash.
func traceHash(e engineIface, budget int, seed uint64) uint64 {
	return stormHash(e, budget, seed, []Time{0, 1, 3, 100, 255, 256, 1000, 65535, 70000, 3 * Millisecond,
		900 * Millisecond, 5 * Second, 17 * Second})
}

// stormHash is traceHash over a caller-chosen set of scheduling horizons.
func stormHash(e engineIface, budget int, seed uint64, horizons []Time) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	rng := seed | 1
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}

	var pending []EventID
	nextID := uint64(1)
	remaining := budget
	var schedule func()
	schedule = func() {
		id := nextID
		nextID++
		at := e.Now() + horizons[next(uint64(len(horizons)))]
		evid := e.At(at, func() {
			mix(uint64(e.Now()))
			mix(id)
			fan := int(next(4))
			for i := 0; i < fan && remaining > 0; i++ {
				remaining--
				schedule()
			}
			// Occasionally cancel a previously scheduled event; it may or
			// may not have run already — both outcomes are deterministic.
			if len(pending) > 0 && next(3) == 0 {
				victim := next(uint64(len(pending)))
				e.Cancel(pending[victim])
				pending[victim] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
			}
		})
		pending = append(pending, evid)
	}

	// Seed the storm, including several events at the exact same instant to
	// exercise FIFO tie-breaking.
	for i := 0; i < 8; i++ {
		remaining--
		schedule()
	}
	for i := 0; i < 4; i++ {
		i := i
		e.At(50, func() { mix(uint64(e.Now())); mix(1000 + uint64(i)) })
	}
	e.Run()
	mix(e.EventsRun())
	return h
}

// engineIface is the scheduling surface the golden storm needs; both the
// real Engine and the in-test reference heap engine implement it.
type engineIface interface {
	Now() Time
	At(Time, func()) EventID
	After(Time, func()) EventID
	Cancel(EventID) bool
	Run()
	EventsRun() uint64
}

// goldenHashes were produced by the pre-rewrite binary-heap engine
// (commit 034d0bc) running traceHash with the seeds below.
var goldenHashes = map[uint64]uint64{
	1:          0x0b6e30ec1489f975,
	42:         0xa31b5d42d23f44a3,
	0xdeadbeef: 0xa0065b97b76b9c73,
}

func TestGoldenTraceMatchesHeapEngine(t *testing.T) {
	for seed, want := range goldenHashes {
		got := traceHash(New(), 4000, seed)
		if got != want {
			t.Errorf("seed %d: trace hash %#x, want %#x (event order diverged from heap engine)", seed, got, want)
		}
	}
}

// TestEngineMatchesReference cross-checks the production engine against the
// reference binary-heap implementation below on many random storms,
// including seeds outside the golden set.
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		a := traceHash(New(), 2000, seed*2654435761)
		b := traceHash(newRefEngine(), 2000, seed*2654435761)
		if a != b {
			t.Fatalf("seed %d: engine trace %#x != reference trace %#x", seed, a, b)
		}
	}
}

// TestEngineMatchesReferenceDense repeats the cross-check on storms packed
// into a few nanoseconds, so that many instants share one bottom-level
// bucket and the storm's random cancels land in the middle of a bucket's
// list. The second horizon set adds arrivals cascaded down from level 1
// onto instants that direct inserts already occupy.
func TestEngineMatchesReferenceDense(t *testing.T) {
	sets := [][]Time{
		{0, 1, 2, 3, 5, 7, 11, 13, 15},
		{0, 3, 9, 15, 16, 1<<15 - 2, 1<<15 + 5, 1<<16 + 9},
	}
	for i, horizons := range sets {
		for seed := uint64(1); seed <= 25; seed++ {
			a := stormHash(New(), 3000, seed*2654435761, horizons)
			b := stormHash(newRefEngine(), 3000, seed*2654435761, horizons)
			if a != b {
				t.Fatalf("horizon set %d, seed %d: engine trace %#x != reference trace %#x", i, seed, a, b)
			}
		}
	}
}

// ---------------------------------------------------------------- reference
// refEngine is the original container/heap scheduler, kept verbatim as a
// test oracle. It implements engineIface via thin adapters.

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int
	dead bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

type refEngine struct {
	now    Time
	seq    uint64
	events refHeap
	nrun   uint64
	// ids maps the EventID handles we vend (via a side table, since the
	// production EventID is opaque) to reference events.
	ids map[*event]*refEvent
}

func newRefEngine() *refEngine { return &refEngine{ids: map[*event]*refEvent{}} }

func (e *refEngine) Now() Time         { return e.now }
func (e *refEngine) EventsRun() uint64 { return e.nrun }

func (e *refEngine) At(at Time, fn func()) EventID {
	if at < e.now {
		panic("ref: scheduling in the past")
	}
	ev := &refEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, ev)
	// Vend a unique handle: a throwaway *event used purely as a map key.
	key := &event{}
	e.ids[key] = ev
	return EventID{e: key}
}

func (e *refEngine) After(d Time, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

func (e *refEngine) Cancel(id EventID) bool {
	ev := e.ids[id.e]
	if ev == nil || ev.dead || ev.idx < 0 {
		return false
	}
	ev.dead = true
	return true
}

func (e *refEngine) Run() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.nrun++
		ev.fn()
	}
}

package sim

import "testing"

func TestStillTail(t *testing.T) {
	e := New()

	if e.StillTail(EventID{}) {
		t.Error("zero EventID reported as tail")
	}

	a := e.At(100, func() {})
	if !e.StillTail(a) {
		t.Error("sole level-0 event is not reported as tail")
	}

	// A later event at the same instant takes over the slot tail.
	b := e.At(100, func() {})
	if e.StillTail(a) {
		t.Error("superseded event still reported as tail")
	}
	if !e.StillTail(b) {
		t.Error("new tail not reported as tail")
	}

	// Events at other instants don't disturb this slot's tail.
	c := e.At(200, func() {})
	if !e.StillTail(b) {
		t.Error("tail lost to an event in a different slot")
	}
	_ = c

	// Far-future events sit on coarser levels, whose slots hold mixed
	// instants in no particular order — never a safe piggyback target.
	far := e.At(Time(1)<<level0Bits+500, func() {})
	if e.StillTail(far) {
		t.Error("higher-level event reported as tail")
	}

	// Cancellation invalidates the handle.
	e.Cancel(b)
	if e.StillTail(b) {
		t.Error("cancelled event reported as tail")
	}
	if !e.StillTail(a) {
		t.Error("tail did not revert to the remaining slot occupant")
	}

	// Run events; executed handles must go stale.
	e.RunUntil(300)
	if e.StillTail(a) || e.StillTail(c) {
		t.Error("executed event reported as tail")
	}
}

// TestStillTailBuckets pins StillTail's meaning on the bucketed bottom
// level, where a bucket holds several instants: ev must be the last event
// of its own instant, whatever else shares its bucket.
func TestStillTailBuckets(t *testing.T) {
	e := New()
	ev := e.At(100, func() {})
	later := e.At(101, func() {}) // same 16ns bucket, later instant
	if !e.StillTail(ev) || !e.StillTail(later) {
		t.Error("a later instant sharing the bucket took the tail of an earlier one")
	}
	earlier := e.At(99, func() {}) // same bucket, earlier instant: walks back
	if !e.StillTail(earlier) || !e.StillTail(ev) {
		t.Error("an earlier instant inserted before ev disturbed either tail")
	}
	same := e.At(100, func() {})
	if e.StillTail(ev) {
		t.Error("a same-instant push after ev left ev as the tail")
	}
	if !e.StillTail(same) {
		t.Error("the same-instant push is not the tail")
	}

	// A and D are pushed while their instants are more than one level-0
	// span ahead, so they park on level 1 until the cursor reaches their
	// slot; B is pushed at A's instant once it is within the span.
	e = New()
	at := Time(1)<<level0Bits + 40
	a := e.At(at, func() {})
	d := e.At(at+500, func() {})
	if e.StillTail(a) || e.StillTail(d) {
		t.Error("a level-1 event reported as tail")
	}
	e.RunUntil(100)
	b := e.At(at, func() {})
	if !e.StillTail(b) {
		t.Error("sole level-0 event of its instant is not the tail")
	}
	e.RunUntil(Time(1) << level0Bits) // cascades A and D into level 0
	if !e.StillTail(b) {
		t.Error("a cascaded, lower-seq arrival at the same instant took b's tail")
	}
	if e.StillTail(a) {
		t.Error("cascaded a runs before b at the same instant but is reported as tail")
	}
	if !e.StillTail(d) {
		t.Error("an event cascaded alone into level 0 is not the tail")
	}
}

// TestStillTailAfterReuse pins the generation guard: once an event's
// storage is recycled for a new schedule, the old handle must not match
// even if the recycled event happens to be a slot tail again.
func TestStillTailAfterReuse(t *testing.T) {
	e := New()
	a := e.At(10, func() {})
	e.RunUntil(20) // runs and recycles a's event storage
	b := e.At(30, func() {})
	if !e.StillTail(b) {
		t.Fatal("fresh event not reported as tail")
	}
	if e.StillTail(a) {
		t.Error("stale handle matched a recycled event")
	}
}

// stormReq is one request of batchStormHash's device-like client; next
// chains the requests riding one finish event.
type stormReq struct {
	id   uint64
	next *stormReq
}

// batchStormHash drives a device-like batching client through a random
// storm and folds every batch decision, every delivery and the final
// EventsRun into an FNV-1a hash. As in device completion batching, a
// request whose finish lands on the instant of the previous finish event
// rides that event while StillTail says it is still the last event of its
// instant, and schedules its own otherwise. Background events at nearby
// and equal instants — some parked on coarser levels and cascaded down
// later, some cancelled from the middle of their bucket — are what take
// the tail away. It also returns how many requests rode an event and how
// many were refused at a matching instant.
func batchStormHash(seed uint64, budget int) (hash uint64, rode, refused int) {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
		window    = 1024
	)
	e := New()
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	rng := seed | 1
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	svc := []Time{0, 1, 3, 15, 16, 17, 100, 1<<15 - 1, 1 << 15, 1<<15 + 3, 128 * Microsecond}
	noise := []Time{0, 1, 2, 16, 100, 1<<15 + 1, 40_000, 128 * Microsecond, 3 * Millisecond}

	var (
		tail     *stormReq
		batchAt  Time
		batchEv  EventID
		noiseIDs []EventID
		ids      uint64
		inflight int
	)
	var finish func(any)
	submit := func(d Time) {
		budget--
		inflight++
		ids++
		r := &stormReq{id: ids}
		at := e.Now() + d
		if at == batchAt && tail != nil {
			if e.StillTail(batchEv) {
				tail.next, tail = r, r
				rode++
				mix(1)
				return
			}
			refused++
		}
		mix(0)
		batchEv = e.AtCall(at, finish, r)
		tail, batchAt = r, at
	}
	finish = func(a any) {
		for r := a.(*stormReq); r != nil; r = r.next {
			inflight--
			mix(uint64(e.Now()))
			mix(r.id)
			// A burst of same-cost requests, with background events
			// (sometimes at the burst's own instant) scheduled between
			// them.
			d := svc[next(len(svc))]
			for n := 1 + next(3); n > 0 && budget > 0 && inflight < window; n-- {
				submit(d)
				if next(4) == 0 {
					nd := d
					if next(2) == 0 {
						nd = noise[next(len(noise))]
					}
					id := ids + 1<<32
					noiseIDs = append(noiseIDs, e.At(e.Now()+nd, func() {
						mix(uint64(e.Now()))
						mix(id)
					}))
				}
			}
			if len(noiseIDs) > 0 && next(3) == 0 {
				v := next(len(noiseIDs))
				e.Cancel(noiseIDs[v])
				noiseIDs[v] = noiseIDs[len(noiseIDs)-1]
				noiseIDs = noiseIDs[:len(noiseIDs)-1]
			}
		}
	}
	for i := 0; i < 16; i++ {
		submit(svc[next(len(svc))])
	}
	e.Run()
	mix(e.EventsRun())
	return h, rode, refused
}

// batchStormHashes pin batchStormHash's (EventsRun, batch decision) trace.
// They were captured on the engine whose bottom wheel level had one slot
// per nanosecond; the bucketed level must reproduce every decision.
var batchStormHashes = map[uint64]uint64{
	1:          0xc5ec64b95bc8939d,
	7:          0x4afef928b66dda4a,
	0xfeedface: 0x636d7ffd3af12526,
}

func TestBatchStormPinned(t *testing.T) {
	for seed, want := range batchStormHashes {
		got, rode, refused := batchStormHash(seed, 20000)
		t.Logf("seed %d: hash %#x, rode %d, refused %d", seed, got, rode, refused)
		if rode == 0 || refused == 0 {
			t.Errorf("seed %d: storm rode %d and refused %d requests; it must exercise both", seed, rode, refused)
		}
		if got != want {
			t.Errorf("seed %d: batch storm hash %#x, want %#x (StillTail decisions or event count changed)", seed, got, want)
		}
	}
}

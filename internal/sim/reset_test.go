package sim

import (
	"runtime"
	"testing"
	"time"
)

// dirty leaves events pending on every wheel level and in the overflow
// heap, runs part of them, and returns the IDs of the ones still pending.
func dirty(e *Engine) []EventID {
	var ids []EventID
	for _, d := range []Time{0, 7, 40_000, 1 << 24, 1 << 33, 20 * 60 * Second} {
		for i := Time(0); i < 3; i++ {
			ids = append(ids, e.At(e.Now()+d+i, func() {}))
			ids = append(ids, e.AtCall(e.Now()+d+i, func(any) {}, i))
		}
	}
	e.NewTicker(Millisecond, func() {})
	e.RunUntil(5 * Millisecond)
	var pending []EventID
	for _, id := range ids {
		if id.e.gen == id.gen {
			pending = append(pending, id)
		}
	}
	return pending
}

// TestEngineResetMatchesFresh: an engine reset with events pending at every
// level is indistinguishable from New — counters at zero, old EventIDs
// inert, and the golden storm replays in exactly the pinned order.
func TestEngineResetMatchesFresh(t *testing.T) {
	e := New()
	for seed, want := range goldenHashes {
		stale := dirty(e)
		if len(stale) == 0 || e.Pending() == 0 {
			t.Fatal("dirty left nothing pending")
		}
		e.Reset()
		if e.Now() != 0 || e.EventsRun() != 0 || e.Pending() != 0 {
			t.Fatalf("after Reset: Now %v, EventsRun %d, Pending %d; want all zero",
				e.Now(), e.EventsRun(), e.Pending())
		}
		if e.Step() {
			t.Fatal("a reset engine ran an event")
		}
		for _, id := range stale {
			if e.StillTail(id) || e.Cancel(id) {
				t.Fatal("an EventID from before Reset is still live")
			}
		}
		if got := traceHash(e, 4000, seed); got != want {
			t.Errorf("seed %d: reset engine trace %#x, want %#x", seed, got, want)
		}
		for _, id := range stale {
			if e.Cancel(id) {
				t.Fatal("an EventID from before Reset cancelled a recycled event")
			}
		}
		e.Reset()
	}
}

// TestEngineResetReleasesCallbacks: Reset must drop every reference the
// pending events held, or the kept event blocks would keep a retired
// simulation reachable.
func TestEngineResetReleasesCallbacks(t *testing.T) {
	e := New()
	collected := make(chan struct{}, 2)
	for _, d := range []Time{3, 20 * 60 * Second} {
		held := new([64]byte)
		runtime.SetFinalizer(held, func(*[64]byte) { collected <- struct{}{} })
		e.At(d, func() { held[0]++ })
		e.AtCall(d, func(a any) { a.(*[64]byte)[0]++ }, held)
	}
	e.Reset()
	deadline := time.Now().Add(5 * time.Second)
	for n := 0; n < 2; {
		runtime.GC()
		select {
		case <-collected:
			n++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%d of 2 callback referents still reachable after Reset", 2-n)
			}
		}
	}
	runtime.KeepAlive(e)
}

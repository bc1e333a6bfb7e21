package device

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/sim"
)

// TestBatchedCompletionSingleEvent pins the batching win itself: a burst of
// equal-cost requests submitted at one instant begins together, finishes at
// one instant, and rides a single timing-wheel event rather than one per
// request.
func TestBatchedCompletionSingleEvent(t *testing.T) {
	eng := sim.New()
	d := NewSSD(eng, NullSSD(), 7)
	par := d.Parallelism()

	done := 0
	for i := 0; i < par; i++ {
		b := &bio.Bio{Op: bio.Read, Off: int64(i) * 4096, Size: 4096}
		d.Submit(b, func(b *bio.Bio) { done++ })
	}
	eng.Run()
	if done != par {
		t.Fatalf("completed %d of %d", done, par)
	}
	// One event for the whole burst: the first submit schedules it, the
	// rest chain onto it via the batch registers.
	if got := eng.EventsRun(); got != 1 {
		t.Errorf("burst of %d equal-cost requests ran %d events, want 1", par, got)
	}
}

// TestBatchedCompletionPreservesOrder checks that chained completions are
// delivered in exactly the order their requests began service — the order
// back-to-back events would have produced.
func TestBatchedCompletionPreservesOrder(t *testing.T) {
	eng := sim.New()
	d := NewSSD(eng, NullSSD(), 7)
	par := d.Parallelism()

	var order []int64
	for i := 0; i < par; i++ {
		b := &bio.Bio{Op: bio.Read, Off: int64(i) * 4096, Size: 4096}
		d.Submit(b, func(b *bio.Bio) { order = append(order, b.Off/4096) })
	}
	eng.Run()
	for i, got := range order {
		if got != int64(i) {
			t.Fatalf("completion %d was request %d; batching reordered delivery (%v)", i, got, order)
		}
	}
}

// TestBatchBrokenByInterveningEvent covers the batch registers' staleness
// guard: once some other event is scheduled at the shared finish instant,
// the pending finish event is no longer the last event of its instant, so a
// later request must schedule its own event — chaining would run it ahead
// of the interloper and reorder the trace.
func TestBatchBrokenByInterveningEvent(t *testing.T) {
	eng := sim.New()
	d := NewSSD(eng, NullSSD(), 7)

	var log []string
	b1 := &bio.Bio{Op: bio.Read, Off: 0, Size: 4096}
	d.Submit(b1, func(*bio.Bio) { log = append(log, "b1") })
	// NullSSD service time is deterministic, so the finish instant is
	// exactly 20µs out. Wedge an unrelated event at it.
	eng.At(eng.Now()+20_000, func() { log = append(log, "mid") })
	b2 := &bio.Bio{Op: bio.Read, Off: 4096, Size: 4096}
	d.Submit(b2, func(*bio.Bio) { log = append(log, "b2") })
	eng.Run()

	want := [...]string{"b1", "mid", "b2"}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v: chained completion ran ahead of an intervening event", log, want[:])
		}
	}
	// Three separately ordered callbacks require three events.
	if got := eng.EventsRun(); got != 3 {
		t.Errorf("ran %d events, want 3", got)
	}
}

// TestBatchRegistersPerDirection checks reads and writes never share a
// chain even when their finish instants collide: the registers are indexed
// by direction.
func TestBatchRegistersPerDirection(t *testing.T) {
	eng := sim.New()
	d := NewSSD(eng, NullSSD(), 7)

	done := 0
	// 4KiB on NullSSD costs the same 20µs for both directions, so all
	// four finish at one instant. Same-direction requests are adjacent, so
	// each pair shares a chain; the chains themselves stay separate.
	for i := 0; i < 4; i++ {
		op := bio.Read
		if i >= 2 {
			op = bio.Write
		}
		b := &bio.Bio{Op: op, Off: int64(i) * 4096, Size: 4096}
		d.Submit(b, func(*bio.Bio) { done++ })
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("completed %d of 4", done)
	}
	// One chain per direction: two events, not one and not four.
	if got := eng.EventsRun(); got != 2 {
		t.Errorf("ran %d events, want 2 (one per direction)", got)
	}
}

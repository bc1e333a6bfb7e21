package bio

import (
	"runtime"
	"testing"
	"time"

	"github.com/iocost-sim/iocost/internal/sim"
)

func TestPoolGrowsOnExhaustion(t *testing.T) {
	p := NewPool()
	// Drain an empty pool far past any free-list contents: every Get must
	// succeed, growing the pool.
	live := make([]*Bio, 100)
	for i := range live {
		live[i] = p.Get()
		if live[i] == nil {
			t.Fatalf("Get #%d returned nil", i)
		}
		if !live[i].Pooled() {
			t.Fatalf("Get #%d returned a bio not owned by the pool", i)
		}
	}
	if got := p.Allocated(); got != 100 {
		t.Errorf("Allocated = %d, want 100", got)
	}
	if p.Free() != 0 {
		t.Errorf("Free = %d with every bio live", p.Free())
	}
	// Recycle everything; subsequent Gets must reuse, not allocate.
	for _, b := range live {
		p.Put(b)
	}
	if p.Free() != 100 {
		t.Errorf("Free = %d after returning 100", p.Free())
	}
	for i := 0; i < 100; i++ {
		p.Get()
	}
	if got := p.Allocated(); got != 100 {
		t.Errorf("Allocated grew to %d on reuse, want to stay 100", got)
	}
	if gets := p.Gets(); gets != 200 {
		t.Errorf("Gets = %d, want 200", gets)
	}
}

func TestPoolReuseClearsStaleState(t *testing.T) {
	p := NewPool()
	b := p.Get()
	// Dirty every request field a past life could leak into the next one.
	b.Op = Write
	b.Flags = Sync
	b.Off, b.Size = 4096, 8192
	b.Submitted, b.Issued, b.Dispatched, b.Completed = 1, 2, 3, 4
	b.OnDone = func(*Bio) {}
	b.Seq = 42
	b.DeadlineEv = sim.EventID{}
	b.Status = StatusError
	b.Retries = 3
	gen := b.Gen()

	p.Put(b)
	nb := p.Get()
	if nb != b {
		t.Fatal("pool did not recycle the returned bio")
	}
	if nb.Status != StatusOK {
		t.Errorf("recycled bio leaked Status %v", nb.Status)
	}
	if nb.Retries != 0 {
		t.Errorf("recycled bio leaked Retries %d", nb.Retries)
	}
	if nb.Op != Read || nb.Flags != 0 || nb.Off != 0 || nb.Size != 0 {
		t.Errorf("recycled bio leaked request fields: %+v", nb)
	}
	if nb.Submitted != 0 || nb.Issued != 0 || nb.Dispatched != 0 || nb.Completed != 0 {
		t.Error("recycled bio leaked timestamps")
	}
	if nb.OnDone != nil || nb.Seq != 0 {
		t.Error("recycled bio leaked OnDone/Seq")
	}
	if nb.Gen() != gen+1 {
		t.Errorf("Gen = %d after recycle, want %d", nb.Gen(), gen+1)
	}
	if !nb.Pooled() {
		t.Error("recycled bio lost its pool ownership")
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	p := NewPool()
	b := p.Get()
	p.Put(b)
	defer func() {
		if recover() == nil {
			t.Error("double Put did not panic")
		}
	}()
	p.Put(b)
}

func TestPoolForeignPutPanics(t *testing.T) {
	p, q := NewPool(), NewPool()
	b := p.Get()
	defer func() {
		if recover() == nil {
			t.Error("Put into a foreign pool did not panic")
		}
	}()
	q.Put(b)
}

func TestDetachStopsRecycling(t *testing.T) {
	p := NewPool()
	b := p.Get()
	b.Detach()
	if b.Pooled() {
		t.Error("detached bio still reports Pooled")
	}
	// Release must leave a detached bio alone.
	Release(b)
	if p.Free() != 0 {
		t.Error("Release recycled a detached bio")
	}
}

// TestPoolReclaim: Reclaim takes back every bio the pool handed out —
// recycled or live — but not detached ones.
func TestPoolReclaim(t *testing.T) {
	p := NewPool()
	live := make([]*Bio, 96)
	for i := range live {
		live[i] = p.Get()
		live[i].Off = int64(i)
		live[i].OnDone = func(*Bio) {}
	}
	for _, b := range live[:10] {
		p.Put(b)
	}
	detached := live[20:23]
	for _, b := range detached {
		b.Detach()
	}
	gens := make([]uint32, len(live))
	for i, b := range live {
		gens[i] = b.Gen()
	}

	p.Reclaim()
	want := int(p.Allocated()) - len(detached)
	if p.Free() != want {
		t.Fatalf("Free = %d after Reclaim, want Allocated %d - detached %d", p.Free(), p.Allocated(), len(detached))
	}
	for i, b := range live {
		switch {
		case i >= 20 && i < 23:
			if b.Pooled() || b.Off != int64(i) {
				t.Errorf("bio %d: Reclaim touched a detached bio", i)
			}
		case i < 10:
			if b.Gen() != gens[i] {
				t.Errorf("bio %d: already-free bio's generation moved %d -> %d", i, gens[i], b.Gen())
			}
		default:
			if b.Gen() != gens[i]+1 || b.Off != 0 || b.OnDone != nil {
				t.Errorf("bio %d: live bio not recycled by Reclaim (gen %d -> %d)", i, gens[i], b.Gen())
			}
		}
	}

	// Reclaim is a Put: putting a reclaimed bio again is a double Put.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Put after Reclaim did not panic")
			}
		}()
		p.Put(live[30])
	}()

	// Gets now reuse every reclaimed bio, and only those, before the pool
	// allocates again.
	n := p.Allocated()
	owned := map[*Bio]bool{}
	for i, b := range live {
		if i < 20 || i >= 23 {
			owned[b] = true
		}
	}
	for range want {
		b := p.Get()
		if !owned[b] {
			t.Fatal("Get after Reclaim returned a bio the pool did not own, or one twice")
		}
		delete(owned, b)
	}
	if p.Allocated() != n || p.Free() != 0 {
		t.Errorf("draining the reclaimed pool: Allocated %d -> %d, Free %d", n, p.Allocated(), p.Free())
	}
	p.Get()
	if p.Allocated() != n+1 {
		t.Errorf("Get on an empty reclaimed pool: Allocated %d, want %d", p.Allocated(), n+1)
	}
}

// TestDetachedBiosAreForgotten: once detached bios outnumber the ones the
// pool owns, the pool drops them, so a bio whose holder lets go of it is
// collected even though its pool lives on.
func TestDetachedBiosAreForgotten(t *testing.T) {
	p := NewPool()
	live := make([]*Bio, 10)
	for i := range live {
		live[i] = p.Get()
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(live[0], func(*Bio) { close(collected) })
	for _, b := range live[:8] {
		b.Detach()
	}
	clear(live[:8])
	deadline := time.Now().Add(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("a detached, dropped bio is still reachable through its pool")
			}
		}
	}
	p.Reclaim()
	if p.Free() != 2 || p.Allocated() != 10 {
		t.Errorf("after Reclaim: Free %d, Allocated %d; want 2 owned of 10 allocated", p.Free(), p.Allocated())
	}
	runtime.KeepAlive(live)
}

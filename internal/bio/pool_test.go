package bio

import (
	"runtime"
	"testing"
	"unsafe"

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
	if p.Free() != 0 {
		t.Errorf("Free = %d after reusing all 100", p.Free())
	}
}

// TestPoolGrowthAllocatesOnlyBios: growing a pool allocates the bios'
// slabs and almost nothing else — no record of the bios beside them.
func TestPoolGrowthAllocatesOnlyBios(t *testing.T) {
	const n = 100_000
	size := unsafe.Sizeof(Bio{})
	p := NewPool()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for range n {
		p.Get()
	}
	runtime.ReadMemStats(&b)
	if p.Allocated() != n || p.Free() != 0 {
		t.Fatalf("Allocated %d, Free %d; want %d live bios", p.Allocated(), p.Free(), n)
	}
	got := b.TotalAlloc - a.TotalAlloc
	limit := uint64(1.02*float64(n*size)) + 16<<10
	t.Logf("%d live bios of %d B: %d B allocated (limit %d)", n, size, got, limit)
	if got > limit {
		t.Errorf("growing to %d bios allocated %d B, want at most %d (the bios plus 2%% and 16 KiB)", n, got, limit)
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

// TestPoolReclaim: Reclaim takes back every bio the pool handed out —
// recycled or live — and allocates nothing doing it.
func TestPoolReclaim(t *testing.T) {
	p := NewPool()
	live := make([]*Bio, 90)
	for i := range live {
		live[i] = p.Get()
		live[i].Off = int64(i)
		live[i].OnDone = func(*Bio) {}
	}
	if len(p.rest) == 0 {
		t.Fatal("the last slab has no never-used tail; pick a live count that leaves one")
	}
	for _, b := range live[:10] {
		p.Put(b)
	}
	gens := make([]uint32, len(live))
	for i, b := range live {
		gens[i] = b.Gen()
	}

	p.Reclaim()
	// The last slab's never-used tail stays unhanded: only the bios Get
	// returned are on the free list.
	if p.Free() != int(p.Allocated()) {
		t.Fatalf("Free = %d after Reclaim, want Allocated %d", p.Free(), p.Allocated())
	}
	for i, b := range live {
		if i < 10 {
			if b.Gen() != gens[i] {
				t.Errorf("bio %d: already-free bio's generation moved %d -> %d", i, gens[i], b.Gen())
			}
		} else if b.Gen() != gens[i]+1 || b.Off != 0 || b.OnDone != nil {
			t.Errorf("bio %d: live bio not recycled by Reclaim (gen %d -> %d)", i, gens[i], b.Gen())
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
	for _, b := range live {
		owned[b] = true
	}
	for range n {
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

	// Reclaiming a grown pool, its bios live or free, allocates nothing.
	for range 10_000 {
		p.Get()
	}
	if allocs := testing.AllocsPerRun(10, p.Reclaim); allocs != 0 {
		t.Errorf("Reclaim allocated %v times, want 0", allocs)
	}
	if p.Free() != int(p.Allocated()) {
		t.Errorf("Free = %d after reclaiming the grown pool, want Allocated %d", p.Free(), p.Allocated())
	}
}

package exp

import (
	"runtime"
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/check"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

// TestBacklogAllocatesOnlyBios pins what a growing throttled backlog
// costs: nothing beyond its bios. An iocost curve-cell host runs under
// fleet.RunOp's open-loop main workload at pressure 1.1 on a machine reset
// in place after one earlier trial grew its pool, as a fleet.MeasureGrid
// worker's cells do.
// During a 100 ms window in which the backlog grows past that trial's
// high-water mark (and past 16,384 queued bios, where a doubling queue
// would reallocate), the heap objects allocated must not exceed the slabs
// the pool newly carved its bios from plus the reallocations of its slab
// record.
func TestBacklogAllocatesOnlyBios(t *testing.T) {
	if check.Enabled {
		t.Skip("the sanitizer wrapper keeps its own per-bio bookkeeping")
	}
	const (
		pressure = 1.1
		grown    = 700 * sim.Millisecond // the earlier trial's length
		from     = 750 * sim.Millisecond // window start
		to       = from + 100*sim.Millisecond
	)
	var m *Machine
	trial := func() {
		fleetMachine(&m, KindIOCost, 0x18)
		job := m.Workload.NewChild("job", cgroup.DefaultWeight)
		workload.NewReplayer(m.Q, job, workload.DemandProfile{
			Name:          "pressure",
			ReadBps:       pressure * 450e6,
			WriteBps:      pressure * 120e6,
			ReadRandFrac:  0.8,
			WriteRandFrac: 0.3,
			IOSize:        16 << 10,
		}, 0, 0x18^0xf1ee7).Start()
	}
	trial()
	m.Run(grown)
	trial()
	m.Run(from)
	pool := m.pool

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Allocated less Free counts the bios in flight or queued.
	news0 := pool.Allocated()
	live0 := news0 - uint64(pool.Free())
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	m.Run(to)
	runtime.ReadMemStats(&b)
	news1 := pool.Allocated()
	live1 := news1 - uint64(pool.Free())

	if live1 <= live0 || news1 <= news0 {
		t.Fatalf("backlog did not grow past the earlier trial: %d more live bios, %d → %d allocated",
			live1-live0, news0, news1)
	}
	// The pool carves a slab of min(max(n/4, 8), 256) bios when its n
	// handed-out bios leave none, and appends it to its slab record;
	// replay that since the pool was new to count the window's slabs and
	// record reallocations.
	var record [][]bio.Bio
	slabs, grows := uint64(0), uint64(0)
	for n := uint64(0); n < news1; n += min(max(n/4, 8), 256) {
		c := cap(record)
		record = append(record, nil)
		if n >= news0 {
			slabs++
			if cap(record) != c {
				grows++
			}
		}
	}
	objects := b.Mallocs - a.Mallocs
	limit := slabs + grows
	t.Logf("backlog grew by %d bios; %d heap objects for %d new bios in %d slabs + %d record growths",
		live1-live0, objects, news1-news0, slabs, grows)
	if objects > limit {
		t.Errorf("backlog window allocated %d heap objects, want at most %d (%d slabs + %d record growths)",
			objects, limit, slabs, grows)
	}
}

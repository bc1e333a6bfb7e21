package fleet

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
)

// PassthroughHost builds a host with no cgroup IO control on eng, which
// must be fresh or reset, drawing its bios from pool.
func PassthroughHost(eng *sim.Engine, pool *bio.Pool, seed uint64) Host {
	dev := device.NewSSD(eng, device.OlderGenSSD(), seed)
	q := blk.NewWithPool(eng, dev, ctl.NewNone(), 0, pool)
	h := cgroup.NewHierarchy()
	return Host{
		Q:            q,
		System:       h.Root().NewChild("system", 50),
		HostCritical: h.Root().NewChild("hostcritical", 100),
		Workload:     h.Root().NewChild("workload", 850),
	}
}

// TestStoppedOpIssuesNothing: an operation stopped with chunks in flight
// lets them complete, but issues no further chunk and takes no further
// offset draw from its source — what keeps a full-fidelity host's
// stragglers from one tick out of the next tick's draws.
func TestStoppedOpIssuesNothing(t *testing.T) {
	eng := sim.New()
	h := PassthroughHost(eng, bio.NewPool(), 7)
	p := ContainerCleanup.Probe(24) // random offsets, several chunks in flight
	rnd := rng.New(9)
	var st OpState
	p.Start(h.Q, h.HostCritical, 1<<41, rnd, &st)
	for st.completed == 0 {
		if !eng.Step() {
			t.Fatal("engine ran dry before the first chunk completed")
		}
	}
	inFlight := st.issued - st.completed
	if inFlight == 0 || st.issued == p.Chunks {
		t.Fatalf("stopping with %d of %d chunks issued and %d in flight tests nothing",
			st.issued, p.Chunks, inFlight)
	}
	st.Stop()
	issued, drawn := st.issued, *rnd
	eng.RunUntil(eng.Now() + 3*p.Deadline)

	if st.completed != issued {
		t.Errorf("%d chunks completed after the stop, want the %d in flight", st.completed-(issued-inFlight), inFlight)
	}
	if st.issued != issued {
		t.Errorf("stopped op issued %d more chunks", st.issued-issued)
	}
	if *rnd != drawn {
		t.Error("stopped op drew from its source after the stop")
	}
	if st.Done {
		t.Error("stopped op finished")
	}
}

package fleet

import (
	"slices"
	"sync"
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/sim"
)

// hostCall is one HostFactory call: the engine, pool and seed it was given.
type hostCall struct {
	eng  *sim.Engine
	pool *bio.Pool
	seed uint64
}

// hostRecorder hands out passthrough-host factories that record every call,
// per curve.
type hostRecorder struct {
	mu    sync.Mutex
	calls [][]hostCall
}

func (r *hostRecorder) factory(i int) HostFactory {
	return func(eng *sim.Engine, pool *bio.Pool, seed uint64) Host {
		r.mu.Lock()
		r.calls[i] = append(r.calls[i], hostCall{eng, pool, seed})
		r.mu.Unlock()
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
}

// TestMeasureGridContract: every cell runs exactly once at its seed, on at
// most two engines and two pools, and each cell and curve equals a serial
// run of fresh RunOps folded in index order.
func TestMeasureGridContract(t *testing.T) {
	const (
		kind   = ContainerCleanup
		trials = 2
		seed   = 40
	)
	pressures := []float64{1.05, 0.1, 0.6} // MeasureGrid sorts them
	rec := &hostRecorder{calls: make([][]hostCall, 2)}
	g := MeasureGrid([]HostFactory{rec.factory(0), rec.factory(1)}, kind, pressures, trials, seed)
	if !slices.IsSorted(g.pressures) || len(g.pressures) != len(pressures) {
		t.Fatalf("grid pressures %v, want %v sorted", g.pressures, pressures)
	}

	engs, pools := map[*sim.Engine]bool{}, map[*bio.Pool]bool{}
	for i, calls := range rec.calls {
		var got, want []uint64
		for _, c := range calls {
			got = append(got, c.seed)
			engs[c.eng], pools[c.pool] = true, true
		}
		for _, p := range g.pressures {
			for tr := 0; tr < trials; tr++ {
				want = append(want, seed+uint64(i)+uint64(tr)*7919+uint64(p*1000))
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("curve %d ran seeds %v, want each of %v once", i, got, want)
		}
	}
	if len(engs) > 2 || len(pools) > 2 {
		t.Errorf("grid used %d engines and %d pools, want at most 2 each", len(engs), len(pools))
	}

	base := specFor(kind).baseFail
	fails := 0
	for i := range rec.calls {
		var want []float64
		for pi, p := range g.pressures {
			n := 0
			for tr := 0; tr < trials; tr++ {
				lat, ok := RunOp(rec.factory(i), kind, p, seed+uint64(i)+uint64(tr)*7919+uint64(p*1000))
				if glat, gok := g.Cell(i, pi, tr); glat != lat || gok != ok {
					t.Errorf("curve %d p=%.2f trial %d: grid (%v, %v), fresh RunOp (%v, %v)", i, p, tr, glat, gok, lat, ok)
				}
				if !ok {
					n++
				}
			}
			fails += n
			ioFail := float64(n) / trials
			want = append(want, ioFail+(1-ioFail)*base)
		}
		if got := g.Curve(i, trials).FailProb; !slices.Equal(got, want) {
			t.Errorf("curve %d: grid fold %v, serial fold %v", i, got, want)
		}
	}
	if fails == 0 {
		t.Errorf("no cell failed; the fold is untested")
	}
}

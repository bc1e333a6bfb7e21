package fleet

import (
	"slices"
	"sync"
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/sim"
)

// TestMeasureGridContract: every cell runs exactly once at its seed, on
// worker 0 or 1, and each cell and curve equals a serial run of fresh
// RunOps folded in index order. The cell function keeps one engine and
// pool per worker, reset between its cells, so a worker index handed to
// two goroutines at once is a data race.
func TestMeasureGridContract(t *testing.T) {
	const (
		kind   = ContainerCleanup
		trials = 2
		seed   = 40
	)
	pressures := []float64{1.05, 0.1, 0.6} // MeasureGrid sorts them
	var (
		mu      sync.Mutex
		seeds   = make([][]uint64, 2) // per curve
		workers = map[int]int{}       // cells run per worker
		engs    [2]*sim.Engine
		pools   [2]*bio.Pool
	)
	g := MeasureGrid(len(seeds), kind, pressures, trials, seed, func(w, i int, p float64, s uint64) (sim.Time, bool) {
		mu.Lock()
		seeds[i] = append(seeds[i], s)
		workers[w]++
		mu.Unlock()
		if w != 0 && w != 1 {
			return 0, false
		}
		if engs[w] == nil {
			engs[w], pools[w] = sim.New(), bio.NewPool()
		}
		engs[w].Reset()
		pools[w].Reclaim()
		return RunOp(PassthroughHost(engs[w], pools[w], s), kind, p, s)
	})
	if !slices.IsSorted(g.pressures) || len(g.pressures) != len(pressures) {
		t.Fatalf("grid pressures %v, want %v sorted", g.pressures, pressures)
	}

	for i, got := range seeds {
		var want []uint64
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
	for w := range workers {
		if w != 0 && w != 1 {
			t.Errorf("cells ran on worker %d, want only workers 0 and 1 (%v)", w, workers)
		}
	}

	base := specFor(kind).baseFail
	fails := 0
	for i := range seeds {
		var want []float64
		for pi, p := range g.pressures {
			n := 0
			for tr := 0; tr < trials; tr++ {
				s := seed + uint64(i) + uint64(tr)*7919 + uint64(p*1000)
				lat, ok := RunOp(PassthroughHost(sim.New(), bio.NewPool(), s), kind, p, s)
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

package fleet_test

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
)

// runPassthrough runs kind's operation on a fresh host with no cgroup IO
// control.
func runPassthrough(kind fleet.OpKind, pressure float64, seed uint64) (sim.Time, bool) {
	return fleet.RunOp(fleet.PassthroughHost(sim.New(), bio.NewPool(), seed), kind, pressure, seed)
}

func TestRunOpCompletesOnIdleHost(t *testing.T) {
	for _, kind := range []fleet.OpKind{fleet.PackageFetch, fleet.ContainerCleanup} {
		d, ok := runPassthrough(kind, 0.1, 7)
		if !ok {
			t.Errorf("%v failed on a nearly idle host (took %v)", kind, d)
		}
	}
}

// TestPressureSlowsOps checks both RunOp outcomes: a lightly loaded fetch
// finishes in time and returns its completion time, while a saturated
// uncontrolled host starves it past the deadline and RunOp records the 3x
// deadline timeout.
func TestPressureSlowsOps(t *testing.T) {
	light, ok := runPassthrough(fleet.PackageFetch, 0.1, 7)
	if !ok || light <= 0 || light > 10*sim.Second {
		t.Errorf("light fetch: got %v ok=%v, want a completion within the 10s deadline", light, ok)
	}
	heavy, ok := runPassthrough(fleet.PackageFetch, 1.05, 7)
	if ok || heavy != 30*sim.Second {
		t.Errorf("saturated fetch: got %v ok=%v, want the 30s timeout and ok=false", heavy, ok)
	}
}

func TestCurveInterpolation(t *testing.T) {
	c := fleet.Curve{
		Pressures: []float64{0.2, 0.6, 1.0},
		FailProb:  []float64{0.0, 0.1, 0.5},
	}
	cases := map[float64]float64{
		0.0: 0.0, 0.2: 0.0, 0.4: 0.05, 0.6: 0.1, 0.8: 0.3, 1.0: 0.5, 1.5: 0.5,
	}
	for p, want := range cases {
		if got := c.At(p); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("At(%v) = %v, want %v", p, got, want)
		}
	}
	var empty fleet.Curve
	if empty.At(0.5) != 0 {
		t.Error("empty curve should interpolate to 0")
	}
}

func TestMigrationSweepMonotoneWithBetterCurve(t *testing.T) {
	old := fleet.Curve{Pressures: []float64{0, 2}, FailProb: []float64{0.2, 0.2}}
	new_ := fleet.Curve{Pressures: []float64{0, 2}, FailProb: []float64{0.02, 0.02}}
	s := fleet.MigrationSweep(old, new_, fleet.MigrationConfig{Hosts: 3000, Weeks: 6, Seed: 5})
	if s.Len() != 6 {
		t.Fatalf("series has %d points", s.Len())
	}
	first, last := s.Y[0], s.Y[s.Len()-1]
	if last >= first/5 {
		t.Errorf("migration to a 10x-better curve only reduced failures %vx", first/last)
	}
	// Roughly monotone decreasing (Monte-Carlo noise allowed).
	ups := 0
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] > s.Y[i-1]*1.15 {
			ups++
		}
	}
	if ups > 1 {
		t.Errorf("failure series not trending down: %v", s.Y)
	}
	var _ *stats.Series = s
}

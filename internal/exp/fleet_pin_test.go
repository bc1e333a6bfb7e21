package exp

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/sim"
)

// runOpPin records one fleet.RunOp outcome: whether the operation met its
// deadline and, when it did, its exact completion time in ns.
type runOpPin struct {
	ok bool
	ns int64
}

// fleetGrids holds one 3-trial measureFleetGrid per op kind, built once
// per test binary: TestRunOpPinned reads its trial 0,
// TestMeasuredFleetCurvesPinned folds its first 2 trials and
// TestFig18Fig19FleetReductions all 3.
var fleetGrids [2]struct {
	once sync.Once
	g    *fleet.Grid
}

func fleetGrid(kind fleet.OpKind) *fleet.Grid {
	f := &fleetGrids[kind]
	f.once.Do(func() { f.g = measureFleetGrid(kind, 3) })
	return f.g
}

// runOpPins holds RunOp's outcome for {iolatency, iocost} × {fetch,
// cleanup} × curvePressures at the seeds the grid gives trial 0.
// Stopping the micro-simulation early must not move any of them.
var runOpPins = map[string][]runOpPin{
	"iolatency/package-fetch":     {{true, 344841634}, {true, 705622580}, {true, 1947289604}, {true, 4525651215}, {false, 0}, {false, 0}, {false, 0}},
	"iolatency/container-cleanup": {{true, 38324822}, {true, 51927123}, {true, 148464471}, {false, 0}, {false, 0}, {false, 0}, {false, 0}},
	"iocost/package-fetch":        {{true, 1181881720}, {true, 5965903881}, {true, 6183182428}, {true, 6216410766}, {true, 6354075593}, {true, 6391315423}, {true, 6378193787}},
	"iocost/container-cleanup":    {{true, 236172790}, {true, 474276945}, {true, 474319440}, {true, 510141275}, {true, 567145849}, {true, 567060741}, {true, 567046590}},
}

// TestRunOpPinned pins fleet.RunOp's outcomes on the Figs 18/19 hosts, as
// the grid's trial-0 cells, which ran on machines reset in place. The
// curves read only ok; the completion time is pinned too whenever the
// operation met its deadline. One cell per kind on a freshly built
// machine must match its grid cell, so that reuse stays equal to a fresh
// machine.
func TestRunOpPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet micro-simulations are slow")
	}
	pin := func(d sim.Time, ok bool) runOpPin {
		if !ok {
			return runOpPin{}
		}
		return runOpPin{true, int64(d)}
	}
	var dump strings.Builder
	for i, ctl := range []string{KindIOLatency, KindIOCost} {
		for _, kind := range []fleet.OpKind{fleet.PackageFetch, fleet.ContainerCleanup} {
			g := fleetGrid(kind)
			key := ctl + "/" + kind.String()
			fmt.Fprintf(&dump, "%q: {", key)
			want := runOpPins[key]
			for j, p := range curvePressures {
				got := pin(g.Cell(i, j, 0))
				fmt.Fprintf(&dump, "{%v, %d}, ", got.ok, got.ns)
				if j >= len(want) || got != want[j] {
					t.Errorf("%s p=%.2f: got ok=%v ns=%d, want %+v", key, p, got.ok, got.ns, want)
				}
			}
			dump.WriteString("},\n")
		}
	}
	if t.Failed() {
		t.Logf("current outcomes:\n%s", dump.String())
	}
	// io.latency at p=0.80: the cheap end's worker reaches it after a
	// dozen other cells, so it ran on a reset machine.
	const j = 2
	for _, kind := range []fleet.OpKind{fleet.PackageFetch, fleet.ContainerCleanup} {
		var m *Machine
		fresh := pin(fleetCell(&m, KindIOLatency, kind, curvePressures[j], 0x18+uint64(curvePressures[j]*1000)))
		if cell := pin(fleetGrid(kind).Cell(0, j, 0)); fresh != cell {
			t.Errorf("%v: cell on a fresh machine %+v, grid cell %+v", kind, fresh, cell)
		}
	}
}

// measuredCurvePins holds MeasuredFleetCurves(kind, 2) failure
// probabilities, old controller then new, printed at %.6f: the grid's
// first 2 trials folded.
var measuredCurvePins = map[fleet.OpKind][2]string{
	fleet.PackageFetch: {
		"0.009000 0.009000 0.009000 0.009000 1.000000 1.000000 1.000000",
		"0.009000 0.009000 0.009000 0.009000 0.009000 0.009000 0.009000",
	},
	fleet.ContainerCleanup: {
		"0.055000 0.055000 0.055000 1.000000 1.000000 1.000000 1.000000",
		"0.055000 0.055000 0.055000 0.055000 0.055000 0.055000 0.055000",
	},
}

// TestMeasuredFleetCurvesPinned pins the measured Figs 18/19 curves.
func TestMeasuredFleetCurvesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet micro-simulations are slow")
	}
	for _, kind := range []fleet.OpKind{fleet.PackageFetch, fleet.ContainerCleanup} {
		g := fleetGrid(kind)
		got := [2]string{curveFailProbs(g.Curve(0, 2)), curveFailProbs(g.Curve(1, 2))}
		if want := measuredCurvePins[kind]; got != want {
			t.Errorf("%v curves:\n got %q\nwant %q", kind, got, want)
		}
	}
}

func curveFailProbs(c fleet.Curve) string {
	var b strings.Builder
	for i, f := range c.FailProb {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.6f", f)
	}
	return b.String()
}

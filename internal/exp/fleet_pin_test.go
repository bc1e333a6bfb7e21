package exp

import (
	"fmt"
	"strings"
	"testing"

	"github.com/iocost-sim/iocost/internal/fleet"
)

// runOpPin records one fleet.RunOp outcome: whether the operation met its
// deadline and, when it did, its exact completion time in ns.
type runOpPin struct {
	ok bool
	ns int64
}

// runOpPins holds RunOp's outcome for {iolatency, iocost} × {fetch,
// cleanup} × curvePressures at the seeds MeasureCurve gives trial 0.
// Stopping the micro-simulation early must not move any of them.
var runOpPins = map[string][]runOpPin{
	"iolatency/package-fetch":     {{true, 344841634}, {true, 705622580}, {true, 1947289604}, {true, 4525651215}, {false, 0}, {false, 0}, {false, 0}},
	"iolatency/container-cleanup": {{true, 38324822}, {true, 51927123}, {true, 148464471}, {false, 0}, {false, 0}, {false, 0}, {false, 0}},
	"iocost/package-fetch":        {{true, 1181881720}, {true, 5965903881}, {true, 6183182428}, {true, 6216410766}, {true, 6354075593}, {true, 6391315423}, {true, 6378193787}},
	"iocost/container-cleanup":    {{true, 236172790}, {true, 474276945}, {true, 474319440}, {true, 510141275}, {true, 567145849}, {true, 567060741}, {true, 567046590}},
}

// TestRunOpPinned pins fleet.RunOp's outcomes on the Figs 18/19 hosts.
// MeasureCurve reads only ok; the completion time is pinned too whenever
// the operation met its deadline.
func TestRunOpPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet micro-simulations are slow")
	}
	type cell struct {
		ctl  string
		kind fleet.OpKind
		seed uint64
	}
	var cells []cell
	for i, ctl := range []string{KindIOLatency, KindIOCost} {
		for _, kind := range []fleet.OpKind{fleet.PackageFetch, fleet.ContainerCleanup} {
			cells = append(cells, cell{ctl, kind, 0x18 + uint64(i)})
		}
	}
	got := ForEach(len(cells), func(i int) []runOpPin {
		c := cells[i]
		pins := make([]runOpPin, len(curvePressures))
		for j, p := range curvePressures {
			d, ok := fleet.RunOp(hostFactory(c.ctl), c.kind, p, c.seed+uint64(p*1000))
			pins[j] = runOpPin{ok: ok}
			if ok {
				pins[j].ns = int64(d)
			}
		}
		return pins
	})
	var dump strings.Builder
	for i, c := range cells {
		key := c.ctl + "/" + c.kind.String()
		fmt.Fprintf(&dump, "%q: {", key)
		for _, p := range got[i] {
			fmt.Fprintf(&dump, "{%v, %d}, ", p.ok, p.ns)
		}
		dump.WriteString("},\n")
		want := runOpPins[key]
		for j, p := range got[i] {
			if j >= len(want) || p != want[j] {
				t.Errorf("%s p=%.2f: got ok=%v ns=%d, want %+v", key, curvePressures[j], p.ok, p.ns, want)
			}
		}
	}
	if t.Failed() {
		t.Logf("current outcomes:\n%s", dump.String())
	}
}

// measuredCurvePins holds MeasuredFleetCurves(kind, 2) failure
// probabilities, old controller then new, printed at %.6f.
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
		old, new_ := MeasuredFleetCurves(kind, 2)
		got := [2]string{curveFailProbs(old), curveFailProbs(new_)}
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

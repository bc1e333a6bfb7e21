package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the benchmark", w.Name)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each reports every declared metric with its unit and passes
// its output checks.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-sampled set-up takes seconds")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: defaultSeed, seconds: 0.2, trace: trace}
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !r.Correct {
				t.Errorf("%s trace=%t: %d of %d checks failed: %v", name, trace, r.Failed, r.Attempted, r.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%t: %s in %s, want %s", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestDigestDetectsChange checks that a changed output fails a check:
// a wrong pin, on the pinned seed and on a seed without a pin, and a
// stack whose output differs by one completion.
func TestDigestDetectsChange(t *testing.T) {
	spec := stackNull
	spec.pins = map[uint64]string{defaultSeed: "0123456789abcdef"}
	for _, seed := range []uint64{defaultSeed, 7} {
		r := newReport()
		if err := runStack(spec, options{workload: "stack-null", seed: seed, seconds: 0.01}, r); err != nil {
			t.Fatal(err)
		}
		if r.Failed != 1 {
			t.Errorf("seed %d, wrong pin: %d of %d checks failed, want 1", seed, r.Failed, r.Attempted)
		}
	}

	s, err := newMachineStack(stackNull, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	s.advance(stackNull.warmup)
	before := digest(s.summary())
	s.loads[0].stats.Done++
	if digest(s.summary()) == before {
		t.Error("digest unchanged after one more completion")
	}
}

// TestTracedStackMatchesNewMachine checks that the traced assembly,
// wrappers and observer included, reproduces exp.NewMachine's output.
func TestTracedStackMatchesNewMachine(t *testing.T) {
	for name, spec := range map[string]stackSpec{"stack-iocost": stackIOCost, "stack-null": stackNull} {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			m, err := newMachineStack(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			ts, _, err := newTracedStack(spec, seed, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			end := spec.warmup + 2*spec.checkEvery
			m.advance(end)
			ts.advance(end)
			if got, want := ts.summary(), m.summary(); got != want {
				t.Errorf("%s seed %d: traced stack\n%s\nexp.NewMachine\n%s", name, seed, got, want)
			}
		}
	}
}

func TestCPUBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/iocost-sim/iocost/internal/sim.(*Engine).RunUntil":                                            "sim",
		"github.com/iocost-sim/iocost/internal/ring.(*Queue[go.shape.*uint8]).Push":                               "ring",
		"github.com/iocost-sim/iocost/internal/ring.(*Queue[*github.com/iocost-sim/iocost/internal/bio.Bio]).Pop": "ring",
		"github.com/iocost-sim/iocost/internal/workload.NewSaturator.func1":                                       "workload",
		"github.com/iocost-sim/iocost/internal/tune.IdealSSDParams":                                               "other",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"math.Log":         "math",
		"math/bits.Len64":  "math",
		"main.calibKernel": "other",
	} {
		if got := cpuBucket(fn); got != want {
			t.Errorf("cpuBucket(%q) = %s, want %s", fn, got, want)
		}
	}
}

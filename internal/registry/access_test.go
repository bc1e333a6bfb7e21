package registry

import (
	"strings"
	"testing"

	"github.com/iocost-sim/iocost/internal/stats"
)

// accessRig builds a registry with one family of each shape.
func accessRig() (*Registry, *stats.Histogram) {
	r := New()
	r.GaugeFunc("g_plain", "plain gauge", nil, func() float64 { return 3.5 })
	r.GaugeFunc("g_labeled", "labeled gauge", L("dev", "ssd-A"), func() float64 { return 7 })
	r.CounterFunc("c_total", "counter", nil, func() float64 { return 42 })
	la, lb := L("cgroup", "/a"), L("cgroup", "/b")
	r.Collector("multi_total", Counter, "per-cgroup counter", func(emit func([]Label, float64)) {
		emit(la, 10)
		emit(lb, 32)
	})
	h := stats.NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	r.Histogram("lat_ns", "latency summary", nil, h)
	return r, h
}

func TestTypedLookups(t *testing.T) {
	r, h := accessRig()

	if v, ok := r.GaugeValue("g_plain", nil); !ok || v != 3.5 {
		t.Fatalf("GaugeValue(g_plain) = %v, %v", v, ok)
	}
	if v, ok := r.GaugeValue("g_labeled", L("dev", "ssd-A")); !ok || v != 7 {
		t.Fatalf("GaugeValue(g_labeled) = %v, %v", v, ok)
	}
	// Exact label match required: wrong value, wrong key, missing labels.
	for _, ls := range [][]Label{L("dev", "ssd-B"), L("device", "ssd-A"), nil} {
		if _, ok := r.GaugeValue("g_labeled", ls); ok {
			t.Fatalf("GaugeValue(g_labeled, %v) matched", ls)
		}
	}
	if v, ok := r.CounterValue("c_total", nil); !ok || v != 42 {
		t.Fatalf("CounterValue(c_total) = %v, %v", v, ok)
	}
	// Kind mismatch: a counter is not a gauge and vice versa.
	if _, ok := r.GaugeValue("c_total", nil); ok {
		t.Fatal("GaugeValue accepted a counter family")
	}
	if _, ok := r.CounterValue("g_plain", nil); ok {
		t.Fatal("CounterValue accepted a gauge family")
	}
	if v, ok := r.Value("c_total", nil); !ok || v != 42 {
		t.Fatalf("Value(c_total) = %v, %v", v, ok)
	}
	if v, ok := r.CounterValue("multi_total", L("cgroup", "/b")); !ok || v != 32 {
		t.Fatalf("CounterValue(multi_total{/b}) = %v, %v", v, ok)
	}
	if _, ok := r.GaugeValue("nosuch", nil); ok {
		t.Fatal("lookup on unknown family matched")
	}

	if v, ok := r.SummaryQuantile("lat_ns", 0.5, nil); !ok || v != float64(h.Quantile(0.5)) {
		t.Fatalf("SummaryQuantile(0.5) = %v, %v (want %v)", v, ok, h.Quantile(0.5))
	}
	if v, ok := r.SummaryQuantile("lat_ns", 0.99, nil); !ok || v != float64(h.Quantile(0.99)) {
		t.Fatalf("SummaryQuantile(0.99) = %v, %v", v, ok)
	}
	// Only the exported quantiles resolve.
	if _, ok := r.SummaryQuantile("lat_ns", 0.75, nil); ok {
		t.Fatal("SummaryQuantile(0.75) matched an unexported quantile")
	}
	if v, ok := r.SummaryCount("lat_ns", nil); !ok || v != 100 {
		t.Fatalf("SummaryCount = %v, %v", v, ok)
	}

	if v, ok := r.Sum("multi_total"); !ok || v != 42 {
		t.Fatalf("Sum(multi_total) = %v, %v", v, ok)
	}
	if v, ok := r.Sum("g_plain"); !ok || v != 3.5 {
		t.Fatalf("Sum(g_plain) = %v, %v", v, ok)
	}
	if _, ok := r.Sum("nosuch"); ok {
		t.Fatal("Sum on unknown family matched")
	}

	if !r.Has("g_plain") || r.Has("nosuch") {
		t.Fatal("Has is wrong")
	}
}

func TestEachSampleAndFamilyOrder(t *testing.T) {
	r, _ := accessRig()

	// Families gather in registration order, which is the order every
	// export writes them in.
	got := r.Gather()
	var fams []string
	for _, f := range got {
		fams = append(fams, f.Name)
	}
	want := []string{"g_plain", "g_labeled", "c_total", "multi_total", "lat_ns"}
	if strings.Join(fams, " ") != strings.Join(want, " ") {
		t.Fatalf("Gather order %v, want %v", fams, want)
	}
	// A collector's samples keep its emission order.
	if multi := got[3].Samples; len(multi) != 2 || multi[0].Value != 10 || multi[1].Value != 32 {
		t.Fatalf("multi_total samples = %+v", multi)
	}
}

// TestAccessorsAllocFree pins that the lookup machinery allocates nothing:
// the filtering emit closures are built once at New, so steady-state typed
// reads are free to call from tuning loops.
func TestAccessorsAllocFree(t *testing.T) {
	r, _ := accessRig()
	devLabels := L("dev", "ssd-A")
	cgLabels := L("cgroup", "/b")

	probes := map[string]func(){
		"gauge":         func() { r.GaugeValue("g_plain", nil) },
		"gauge-labeled": func() { r.GaugeValue("g_labeled", devLabels) },
		"counter":       func() { r.CounterValue("c_total", nil) },
		"collector":     func() { r.CounterValue("multi_total", cgLabels) },
		"quantile":      func() { r.SummaryQuantile("lat_ns", 0.99, nil) },
		"count":         func() { r.SummaryCount("lat_ns", nil) },
		"sum":           func() { r.Sum("multi_total") },
	}
	for name, probe := range probes {
		probe() // warm any lazy state
		if allocs := testing.AllocsPerRun(200, probe); allocs != 0 {
			t.Errorf("%s lookup allocates %.1f per call, want 0", name, allocs)
		}
	}
}

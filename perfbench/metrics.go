package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/iocost-sim/iocost/internal/exp"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names (a self-test holds the two together).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics a -trace 1 run reports on every workload; a
// layer a workload does not run reads 0.
var perLayer = append([]metricDef{
	{"sim.events_per_unit", "count"},
	{"sim.run_self_ns_per_unit", "ns"},
	{"ctl.submit_self_ns_per_unit", "ns"},
	{"ctl.completed_self_ns_per_unit", "ns"},
	{"ctl.submit_calls_per_unit", "count"},
	{"core.throttled_frac", "frac"},
	{"core.issues", "count"},
	{"device.submit_self_ns_per_unit", "ns"},
	{"blk.complete_self_ns_per_unit", "ns"},
	{"exp.new_machine_ms", "ms"},
	{"exp.new_machine_alloc_kb", "kB"},
	{"scenario.machine_tick_ms.p50", "ms"},
	{"scenario.machine_tick_ms.p95", "ms"},
	{"scenario.machine_tick_samples", "count"},
	{"scenario.machine_tick_share", "frac"},
	{"fleet.outcome_ns_per_host_tick", "ns"},
	{"fleet.machine_host_ticks", "count"},
	{"fleet.outcome_host_ticks", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_b_per_unit", "B"},
	{"trace.units", "count"},
	{"trace.cpu_samples", "count"},
	{"trace.untraced_units_per_s", "1/s"},
	{"trace.traced_units_per_s", "1/s"},
	{"trace.slowdown", "x"},
	{"calib.host_slowdown", "x"},
}, cpuShareDefs()...)

func cpuShareDefs() []metricDef {
	defs := make([]metricDef, len(cpuPackages))
	for i, p := range cpuPackages {
		defs[i] = metricDef{p + ".cpu_share", "frac"}
	}
	return defs
}

// complete makes r report exactly defs: a missing per-layer metric reads
// 0, a missing end-to-end metric or any extra one is an error.
func complete(r *report, defs []metricDef, zeroMissing bool) error {
	want := map[string]bool{}
	for _, d := range defs {
		want[d.name] = true
		m, ok := r.Metrics[d.name]
		switch {
		case !ok && zeroMissing:
			r.set(d.name, 0, d.unit)
		case !ok:
			return fmt.Errorf("metric %s not measured", d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("metric %s in %s, want %s", d.name, m.Unit, d.unit)
		}
	}
	for n := range r.Metrics {
		if !want[n] {
			return fmt.Errorf("metric %s is not declared", n)
		}
	}
	return nil
}

// setRuntimeMetrics reports the garbage collector's work between two
// snapshots spanning a measured phase of units units.
func setRuntimeMetrics(r *report, before, after runtime.MemStats, units uint64) {
	r.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC), "count")
	r.set("runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, "ms")
	r.set("runtime.alloc_b_per_unit", float64(after.TotalAlloc-before.TotalAlloc)/float64(units), "B")
}

// setCPUShares reports each bucket's share of flat CPU time.
func setCPUShares(r *report, flat map[string]int64, samples int64) {
	var total int64
	for _, v := range flat {
		total += v
	}
	for _, p := range cpuPackages {
		share := 0.0
		if total > 0 {
			share = float64(flat[p]) / float64(total)
		}
		r.set(p+".cpu_share", share, "frac")
	}
	r.set("trace.cpu_samples", float64(samples), "count")
}

// setOverhead reports the traced run's throughput against the untraced
// one's.
func setOverhead(r *report, untraced, traced float64) {
	r.set("trace.untraced_units_per_s", untraced, "1/s")
	r.set("trace.traced_units_per_s", traced, "1/s")
	r.set("trace.slowdown", untraced/traced, "x")
}

// newMachineSamples is how many exp.NewMachine calls timeNewMachine makes.
const newMachineSamples = 64

// timeNewMachine times exp.NewMachine on newMachineSamples configurations
// and returns the median milliseconds and mean kilobytes allocated per
// call.
func timeNewMachine(cfg func(i int) exp.MachineConfig) (ms, kb float64, err error) {
	cfgs := make([]exp.MachineConfig, newMachineSamples)
	for i := range cfgs {
		cfgs[i] = cfg(i)
	}
	durs := make([]int64, len(cfgs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, c := range cfgs {
		t0 := time.Now()
		if _, err := exp.NewMachine(c); err != nil {
			return 0, 0, err
		}
		durs[i] = int64(time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return float64(quantile(durs, 0.5)) / 1e6, float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / float64(len(cfgs)), nil
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setEndToEnd reports the end-to-end metrics of an untraced run.
func setEndToEnd(r *report, setupS, unitsPerS float64, allocBytes uint64) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, "s")
	r.set("units_per_s", unitsPerS, "1/s")
	r.set("peak_rss_mb", rss, "MiB")
	r.set("alloc_mb", float64(allocBytes)/1e6, "MB")
	return nil
}

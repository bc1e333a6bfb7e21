package ctl_test

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

type rig struct {
	eng  *sim.Engine
	q    *blk.Queue
	hier *cgroup.Hierarchy
}

func newRig(t *testing.T, c blk.Controller) *rig {
	t.Helper()
	eng := sim.New()
	dev := device.NewSSD(eng, device.OlderGenSSD(), 1)
	q := blk.New(eng, dev, c, 0)
	return &rig{eng: eng, q: q, hier: cgroup.NewHierarchy()}
}

func saturate(r *rig, cg *cgroup.Node, region int64, seed uint64) *workload.Saturator {
	w := workload.NewSaturator(r.q, workload.SaturatorConfig{
		CG: cg, Op: bio.Read, Pattern: workload.Random, Size: 4096,
		Depth: 16, Region: region, Seed: seed,
	})
	w.Start()
	return w
}

func TestNonePassthrough(t *testing.T) {
	r := newRig(t, ctl.NewNone())
	cg := r.hier.Root().NewChild("w", 100)
	w := saturate(r, cg, 0, 1)
	r.eng.RunUntil(500 * sim.Millisecond)
	if w.Stats.Done == 0 {
		t.Fatal("no completions through the null controller")
	}
}

func TestThrottleEnforcesIOPSLimit(t *testing.T) {
	c := ctl.NewThrottle()
	r := newRig(t, c)
	cg := r.hier.Root().NewChild("w", 100)
	c.SetLimits(cg, ctl.ThrottleLimits{ReadIOPS: 1000})

	w := saturate(r, cg, 0, 1)
	r.eng.RunUntil(2 * sim.Second)
	w.Stats.TakeWindow()
	r.eng.RunUntil(4 * sim.Second)
	iops := float64(w.Stats.TakeWindow()) / 2
	if iops > 1100 || iops < 900 {
		t.Errorf("throttled IOPS = %.0f, want ~1000", iops)
	}
}

func TestThrottleEnforcesBpsLimit(t *testing.T) {
	c := ctl.NewThrottle()
	r := newRig(t, c)
	cg := r.hier.Root().NewChild("w", 100)
	c.SetLimits(cg, ctl.ThrottleLimits{WriteBps: 10e6})

	w := workload.NewSaturator(r.q, workload.SaturatorConfig{
		CG: cg, Op: bio.Write, Pattern: workload.Sequential, Size: 64 << 10, Depth: 8, Seed: 2,
	})
	w.Start()
	r.eng.RunUntil(2 * sim.Second)
	w.Stats.TakeWindow()
	startBytes := w.Stats.Bytes
	r.eng.RunUntil(4 * sim.Second)
	bps := float64(w.Stats.Bytes-startBytes) / 2
	if bps > 11e6 || bps < 9e6 {
		t.Errorf("throttled Bps = %.0f, want ~10e6", bps)
	}
}

func TestThrottleIsNotWorkConserving(t *testing.T) {
	// The device is otherwise idle, yet the limit still binds — the
	// defining deficiency of absolute limits.
	c := ctl.NewThrottle()
	r := newRig(t, c)
	cg := r.hier.Root().NewChild("w", 100)
	c.SetLimits(cg, ctl.ThrottleLimits{ReadIOPS: 500})
	w := saturate(r, cg, 0, 3)
	r.eng.RunUntil(2 * sim.Second)
	iops := float64(w.Stats.Done) / 2
	if iops > 600 {
		t.Errorf("limit did not bind on an idle device: %.0f IOPS", iops)
	}
}

// TestThrottleDelayedAdmissionAllocatesNothing: a bio a bucket delays
// waits on a pooled engine event, not a per-bio closure.
func TestThrottleDelayedAdmissionAllocatesNothing(t *testing.T) {
	c := ctl.NewThrottle()
	r := newRig(t, c)
	cg := r.hier.Root().NewChild("w", 100)
	c.SetLimits(cg, ctl.ThrottleLimits{ReadIOPS: 1000})
	saturate(r, cg, 0, 4)
	r.eng.RunUntil(500 * sim.Millisecond)
	allocs := testing.AllocsPerRun(20, func() {
		r.eng.RunUntil(r.eng.Now() + 10*sim.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("throttled 10 ms window allocated %.1f objects, want 0", allocs)
	}
}

func TestIOLatencyThrottlesLowerPriority(t *testing.T) {
	c := ctl.NewIOLatency()
	r := newRig(t, c)
	hi := r.hier.Root().NewChild("hi", 100)
	lo := r.hier.Root().NewChild("lo", 100)
	// hi's target is set below the loaded operating point, so it is
	// always "missing" and lo gets its depth crushed.
	c.SetTarget(hi, 150*sim.Microsecond)
	c.SetTarget(lo, 10*sim.Millisecond)

	wHi := saturate(r, hi, 0, 1)
	wLo := saturate(r, lo, 32<<30, 2)
	r.eng.RunUntil(sim.Second)
	wHi.Stats.TakeWindow()
	wLo.Stats.TakeWindow()
	r.eng.RunUntil(3 * sim.Second)
	nHi, nLo := wHi.Stats.TakeWindow(), wLo.Stats.TakeWindow()
	if nLo*3 > nHi {
		t.Errorf("lo (%d) was not strongly throttled vs hi (%d)", nLo, nHi)
	}
}

func TestBFQWeightedFairnessInSectors(t *testing.T) {
	c := ctl.NewBFQ()
	r := newRig(t, c)
	hi := r.hier.Root().NewChild("hi", 200)
	lo := r.hier.Root().NewChild("lo", 100)
	wHi := saturate(r, hi, 0, 1)
	wLo := saturate(r, lo, 32<<30, 2)
	r.eng.RunUntil(sim.Second)
	wHi.Stats.TakeWindow()
	wLo.Stats.TakeWindow()
	r.eng.RunUntil(5 * sim.Second)
	nHi, nLo := float64(wHi.Stats.TakeWindow()), float64(wLo.Stats.TakeWindow())
	// Equal-size requests: sector fairness == IOPS fairness, 2:1.
	ratio := nHi / nLo
	if ratio < 1.5 || ratio > 2.8 {
		t.Errorf("bfq 2:1 ratio = %.2f (hi=%v lo=%v)", ratio, nHi, nLo)
	}
}

func TestBFQWorkConservingWhenOneQueueIdles(t *testing.T) {
	c := ctl.NewBFQ()
	r := newRig(t, c)
	lo := r.hier.Root().NewChild("lo", 100)
	w := saturate(r, lo, 0, 1)
	r.eng.RunUntil(2 * sim.Second)
	iops := float64(w.Stats.Done) / 2
	if iops < 50_000 {
		t.Errorf("single bfq queue only reached %.0f IOPS; should approach device peak", iops)
	}
}

func TestMQDeadlinePrefersReads(t *testing.T) {
	c := ctl.NewMQDeadline()
	r := newRig(t, c)
	cg := r.hier.Root().NewChild("w", 100)

	rd := saturate(r, cg, 0, 1)
	wr := workload.NewSaturator(r.q, workload.SaturatorConfig{
		CG: cg, Op: bio.Write, Pattern: workload.Random, Size: 4096,
		Depth: 16, Region: 32 << 30, Seed: 2,
	})
	wr.Start()
	r.eng.RunUntil(sim.Second)
	rd.Stats.TakeWindow()
	wr.Stats.TakeWindow()
	r.eng.RunUntil(3 * sim.Second)
	reads, writes := rd.Stats.TakeWindow(), wr.Stats.TakeWindow()
	if reads <= writes {
		t.Errorf("mq-deadline did not prefer reads: reads=%d writes=%d", reads, writes)
	}
}

func TestKyberShrinksDepthOnLatencyMiss(t *testing.T) {
	c := ctl.NewKyber()
	c.ReadTarget = 200 * sim.Microsecond // tight: loaded latency exceeds it
	r := newRig(t, c)
	cg := r.hier.Root().NewChild("w", 100)
	w := workload.NewSaturator(r.q, workload.SaturatorConfig{
		CG: cg, Op: bio.Read, Pattern: workload.Random, Size: 4096, Depth: 128, Seed: 1,
	})
	w.Start()
	r.eng.RunUntil(2 * sim.Second)
	w.Stats.Latency.Reset()
	r.eng.RunUntil(3 * sim.Second)
	// With depth limiting engaged, device-level latency must be pulled
	// well below the unthrottled 128-deep level (~1.4ms).
	p50 := sim.Time(r.q.ReadLat.Quantile(0.5))
	if p50 > 800*sim.Microsecond {
		t.Errorf("kyber did not limit depth: loaded p50 = %v", p50)
	}
}

func TestFeatureMatrix(t *testing.T) {
	cases := []struct {
		c    blk.Controller
		want ctl.Features
	}{
		{ctl.NewNone(), ctl.Features{LowOverhead: ctl.Yes, WorkConserving: ctl.Yes}},
		{ctl.NewThrottle(), ctl.Features{LowOverhead: ctl.Partial, CgroupControl: ctl.Yes}},
		{ctl.NewBFQ(), ctl.Features{WorkConserving: ctl.Yes, Proportional: ctl.Yes, CgroupControl: ctl.Yes}},
	}
	for _, tc := range cases {
		fr, ok := tc.c.(ctl.FeatureReporter)
		if !ok {
			t.Fatalf("%s: no feature report", tc.c.Name())
		}
		if fr.Features() != tc.want {
			t.Errorf("%s features = %+v, want %+v", tc.c.Name(), fr.Features(), tc.want)
		}
	}
}

func TestRatingString(t *testing.T) {
	if ctl.Yes.String() != "yes" || ctl.No.String() != "no" || ctl.Partial.String() != "~" {
		t.Error("Rating strings wrong")
	}
}

func TestThrottleHierarchicalLimits(t *testing.T) {
	// A parent limit bounds the sum of its children even when the
	// children have no limits of their own.
	c := ctl.NewThrottle()
	r := newRig(t, c)
	parent := r.hier.Root().NewChild("svc", 100)
	c.SetLimits(parent, ctl.ThrottleLimits{ReadIOPS: 1000})
	a := parent.NewChild("a", 100)
	b := parent.NewChild("b", 100)

	wa := saturate(r, a, 0, 1)
	wb := saturate(r, b, 32<<30, 2)
	r.eng.RunUntil(sim.Second)
	wa.Stats.TakeWindow()
	wb.Stats.TakeWindow()
	r.eng.RunUntil(3 * sim.Second)
	total := float64(wa.Stats.TakeWindow()+wb.Stats.TakeWindow()) / 2
	if total > 1150 || total < 850 {
		t.Errorf("subtree total = %.0f IOPS, want bounded by parent's 1000", total)
	}
}

func TestThrottleChildTighterThanParent(t *testing.T) {
	c := ctl.NewThrottle()
	r := newRig(t, c)
	parent := r.hier.Root().NewChild("svc", 100)
	child := parent.NewChild("a", 100)
	c.SetLimits(parent, ctl.ThrottleLimits{ReadIOPS: 5000})
	c.SetLimits(child, ctl.ThrottleLimits{ReadIOPS: 500})

	w := saturate(r, child, 0, 1)
	r.eng.RunUntil(sim.Second)
	w.Stats.TakeWindow()
	r.eng.RunUntil(3 * sim.Second)
	iops := float64(w.Stats.TakeWindow()) / 2
	if iops > 600 {
		t.Errorf("child IOPS = %.0f, tighter child limit (500) must win", iops)
	}
}

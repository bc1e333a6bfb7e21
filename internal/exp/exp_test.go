package exp

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fleet"
	"github.com/iocost-sim/iocost/internal/rcb"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/tune"
)

// rcbTuneForTest runs a short §3.4 sweep on the older SSD.
func rcbTuneForTest() rcb.TuneResult {
	return rcb.Tune(device.OlderGenSSD(), rcb.TuneOptions{
		Vrates:   []float64{0.3, 0.7, 1.1, 1.5},
		Duration: 6 * sim.Second,
		Seed:     5,
	})
}

func TestTable1Matrix(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("expected 5 mechanisms, got %d", len(rows))
	}
	t.Logf("\n%s", FormatTable1(rows))
	// IOCost is the only row with every feature.
	last := rows[len(rows)-1]
	if last.Mechanism != "iocost" {
		t.Fatalf("last row = %s", last.Mechanism)
	}
	f := last.Features
	if f.LowOverhead != 2 || f.WorkConserving != 2 || f.MemoryAware != 2 || f.Proportional != 2 || f.CgroupControl != 2 {
		t.Errorf("iocost features incomplete: %+v", f)
	}
}

func TestFig3DeviceHeterogeneity(t *testing.T) {
	rows := Fig3(Fig3Options{Short: true})
	t.Logf("\n%s", FormatFig3(rows))
	if len(rows) != 8 {
		t.Fatalf("expected 8 devices, got %d", len(rows))
	}
	byName := map[string]Fig3Row{}
	for _, r := range rows {
		byName[r.Device] = r
		if r.RandReadIOPS <= 0 || r.SeqWriteIOPS <= 0 {
			t.Errorf("device %s has zero measurements: %+v", r.Device, r)
		}
	}
	// The qualitative landmarks of Figure 3.
	if byName["H"].RandReadIOPS < 3*byName["G"].RandReadIOPS {
		t.Error("SSD H should have much higher IOPS than G")
	}
	if byName["H"].ReadLatP50 > byName["A"].ReadLatP50 {
		t.Error("SSD H should have lower latency than A")
	}
}

func TestFig4WorkloadHeterogeneity(t *testing.T) {
	rows := Fig4(Fig4Options{Duration: 2 * sim.Second})
	t.Logf("\n%s", FormatFig4(rows))
	if len(rows) != 7 {
		t.Fatalf("expected 7 workloads, got %d", len(rows))
	}
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Workload] = r
	}
	// Caches are sequential-heavy; non-storage workloads are tiny.
	if byName["cache-a"].SeqBps < 4*byName["cache-a"].RandBps {
		t.Error("cache-a should be sequential-dominated")
	}
	if byName["non-storage-a"].ReadBps+byName["non-storage-a"].WriteBps >
		byName["web-a"].ReadBps+byName["web-a"].WriteBps {
		t.Error("non-storage should demand less than web")
	}
}

func TestFig6CostExample(t *testing.T) {
	r := Fig6()
	t.Logf("\n%s", r)
	if r.ReadSizeRate < 2.0 || r.ReadSizeRate > 2.1 {
		t.Errorf("read size rate = %v, want ~2.05 ns/B", r.ReadSizeRate)
	}
	if r.ExamplePerSec < 2500 || r.ExamplePerSec > 2800 {
		t.Errorf("IOs/sec = %v, want ~2650", r.ExamplePerSec)
	}
}

func TestFig8DonationLive(t *testing.T) {
	r := Fig8()
	t.Logf("\n%s", r)
	// B and H must have donated (inuse < active), the saturated leaves
	// must have received, proportionally more for G than E than F.
	if r.Inuse["B"] >= r.Active["B"]*0.95 || r.Inuse["H"] >= r.Active["H"]*0.95 {
		t.Errorf("B/H did not donate: %+v", r.Inuse)
	}
	for _, l := range []string{"E", "F", "G"} {
		if r.Received[l] <= 0 {
			t.Errorf("%s received nothing: %+v", l, r.Received)
		}
	}
	if !(r.Received["G"] > r.Received["E"] && r.Received["E"] > r.Received["F"]) {
		t.Errorf("donations not proportional to hweight: %+v", r.Received)
	}
}

func TestFig10Proportional(t *testing.T) {
	rows := Fig10(Fig10Options{Warmup: sim.Second, Measure: 3 * sim.Second})
	t.Logf("\n%s", FormatFig10(rows))
	byName := map[string]Fig10Row{}
	for _, r := range rows {
		byName[r.Mechanism] = r
	}
	// IOCost and blk-throttle hold ~2:1; bfq and iolatency fail high.
	if r := byName["iocost"]; r.Ratio < 1.6 || r.Ratio > 2.5 {
		t.Errorf("iocost ratio = %.2f, want ~2", r.Ratio)
	}
	if r := byName["blk-throttle"]; r.Ratio < 1.5 || r.Ratio > 2.6 {
		t.Errorf("blk-throttle ratio = %.2f, want ~2", r.Ratio)
	}
	if r := byName["bfq"]; r.Ratio < 3.5 {
		t.Errorf("bfq ratio = %.2f, expected the high-priority workload to dominate", r.Ratio)
	}
	if r := byName["iolatency"]; r.Ratio < 3.0 {
		t.Errorf("iolatency ratio = %.2f, expected strong domination", r.Ratio)
	}
}

func TestFig11WorkConservation(t *testing.T) {
	rows := Fig11(Fig10Options{Warmup: sim.Second, Measure: 3 * sim.Second})
	t.Logf("\n%s", FormatFig11(rows))
	byName := map[string]Fig11Row{}
	for _, r := range rows {
		byName[r.Mechanism] = r
	}
	// Work-conserving mechanisms let lo consume far more than
	// blk-throttle's fixed limit.
	if byName["iocost"].LoIOPS < 1.5*byName["blk-throttle"].LoIOPS {
		t.Errorf("iocost lo IOPS (%.0f) should far exceed blk-throttle's (%.0f)",
			byName["iocost"].LoIOPS, byName["blk-throttle"].LoIOPS)
	}
}

func TestFig12SpinningDisk(t *testing.T) {
	rows := Fig12(Fig12Options{Measure: 20 * sim.Second})
	t.Logf("\n%s", FormatFig12(rows))
	get := func(mech, sc string) Fig12Row {
		for _, r := range rows {
			if r.Mechanism == mech && r.Scenario == sc {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", mech, sc)
		return Fig12Row{}
	}
	// IOCost approximately holds 2:1 in normalized occupancy in every
	// scenario (the mixed case lands a little low because interleaved
	// sequential IO is underpriced by the linear model; see
	// EXPERIMENTS.md).
	for _, sc := range []string{"rand/rand", "seq/seq"} {
		r := get("iocost", sc)
		if r.Ratio < 1.4 || r.Ratio > 2.8 {
			t.Errorf("iocost %s ratio = %.2f, want ~2", sc, r.Ratio)
		}
	}
	if r := get("iocost", "rand/seq"); r.Ratio < 1.15 || r.Ratio > 2.8 {
		t.Errorf("iocost rand/seq ratio = %.2f, want roughly 2", r.Ratio)
	}
	// mq-deadline has no notion of cgroups: rand/rand lands ~1:1 and the
	// mixed case collapses entirely for the sequential stream.
	if r := get("mq-deadline", "rand/rand"); r.Ratio > 1.5 {
		t.Errorf("mq-deadline rand/rand ratio = %.2f, expected ~1", r.Ratio)
	}
	// BFQ's sector fairness substantially over-allocates device occupancy
	// to the random workload in the mixed scenario (hi is the random
	// one, so its normalized share lands far above 2x lo's).
	if r := get("bfq", "rand/seq"); r.Ratio < 2.5 {
		t.Errorf("bfq rand/seq ratio = %.2f, expected random over-allocated (>2.5)", r.Ratio)
	}
	// And BFQ cannot express 2:1 occupancy in rand/rand: it lands ~1:1
	// under timeout-bound slots.
	if r := get("bfq", "rand/rand"); r.Ratio > 1.6 {
		t.Errorf("bfq rand/rand ratio = %.2f, expected ~1 (struggles)", r.Ratio)
	}
}

func TestFig13VrateAdjust(t *testing.T) {
	r := Fig13(Fig13Options{Phase: 4 * sim.Second})
	t.Logf("\n%s", r)
	// Phase 2 (model halved) must roughly double vrate relative to phase
	// 1; phase 3 (model doubled) must roughly halve it.
	if r.VratePhase[1] < 1.5*r.VratePhase[0] {
		t.Errorf("vrate did not compensate upward: phases %v", r.VratePhase)
	}
	if r.VratePhase[2] > 0.75*r.VratePhase[0] {
		t.Errorf("vrate did not compensate downward: phases %v", r.VratePhase)
	}
}

func TestFig13AblationNoAdjust(t *testing.T) {
	r := Fig13(Fig13Options{Phase: 2 * sim.Second, DisableVrateAdj: true})
	// Without adjustment, vrate is pinned at 100% in every phase.
	for i, v := range r.VratePhase {
		if v < 99 || v > 101 {
			t.Errorf("phase %d vrate = %.0f%%, want pinned 100%%", i, v)
		}
	}
}

func TestAblationDonation(t *testing.T) {
	r := AblationDonation(2 * sim.Second)
	t.Logf("%v", r)
	if r.Gain < 1.3 {
		t.Errorf("donation gain = %.2fx, expected a substantial work-conservation win", r.Gain)
	}
}

func TestAblationCostModel(t *testing.T) {
	rows := AblationCostModel(2 * sim.Second)
	t.Logf("\n%v", rows)
	var full, iops AblationCostModelRow
	for _, r := range rows {
		switch r.Model {
		case "full-linear":
			full = r
		case "iops-only":
			iops = r
		}
	}
	// The full model must land closer to the 2.0 occupancy target than
	// the degenerate ones.
	if abs(full.OccRatio-2) > abs(iops.OccRatio-2) {
		t.Errorf("full model (%.2f) should beat iops-only (%.2f) at hitting 2.0",
			full.OccRatio, iops.OccRatio)
	}
}

func TestFig14MemoryAwareness(t *testing.T) {
	rows := Fig14(Fig14Options{Baseline: 3 * sim.Second, Leak: 12 * sim.Second})
	t.Logf("\n%s", FormatFig14(rows))
	get := func(dev, mech string) Fig14Row {
		for _, r := range rows {
			if r.Device == dev && r.Mechanism == mech {
				return r
			}
		}
		t.Fatalf("missing %s/%s", dev, mech)
		return Fig14Row{}
	}
	for _, dev := range []string{"older-gen", "newer-gen"} {
		ioc := get(dev, "iocost")
		// The paper's headline: the web server holds at least ~80% of
		// its healthy throughput under iocost.
		if ioc.Retention < 0.75 {
			t.Errorf("%s: iocost retention %.0f%%, want >= ~80%%", dev, ioc.Retention*100)
		}
		// bfq is the worst performer on both devices.
		bfq := get(dev, "bfq")
		if bfq.Retention > ioc.Retention {
			t.Errorf("%s: bfq (%.0f%%) outperformed iocost (%.0f%%)", dev, bfq.Retention*100, ioc.Retention*100)
		}
	}
}

func TestFig15DebtAblation(t *testing.T) {
	rows := Fig15(Fig15Options{Limit: 80 * sim.Second})
	t.Logf("\n%s", FormatFig15(rows))
	get := func(cfg string, stress bool) Fig15Row {
		for _, r := range rows {
			if r.Config == cfg && r.Stress == stress {
				return r
			}
		}
		t.Fatalf("missing %s/%v", cfg, stress)
		return Fig15Row{}
	}
	// Without stress everything ramps.
	for _, cfg := range []string{"bfq", "iocost", "iocost-swap-root", "iocost-no-debt"} {
		if !get(cfg, false).Reached {
			t.Errorf("%s without stress failed to ramp", cfg)
		}
	}
	// Production iocost rides out the stress neighbour.
	if !get("iocost", true).Reached {
		t.Error("iocost with stress failed to ramp")
	}
	// Throttling swap at the originator priority-inverts: ramp fails or
	// takes far longer than production iocost.
	noDebt := get("iocost-no-debt", true)
	if noDebt.Reached && noDebt.RampTime < 2*get("iocost", true).RampTime {
		t.Errorf("no-debt config ramped in %v; expected priority inversion to cripple it", noDebt.RampTime)
	}
}

func TestFig16ZooKeeperSLO(t *testing.T) {
	rows := Fig16(Fig16Options{Duration: 120 * sim.Second})
	t.Logf("\n%s", FormatFig16(rows))
	by := map[string]Fig16Row{}
	for _, r := range rows {
		by[r.Mechanism] = r
	}
	ioc := by["iocost"]
	// IOCost: at most a couple of marginal violations (paper: two).
	if ioc.Violations > 3 {
		t.Errorf("iocost violations = %d, want <= 3", ioc.Violations)
	}
	// blk-throttle is the worst offender with the longest violations.
	thr := by["blk-throttle"]
	if thr.Violations < 2*max(ioc.Violations, 10) {
		t.Errorf("blk-throttle violations = %d, expected far more than iocost's %d", thr.Violations, ioc.Violations)
	}
	if thr.WorstP99 < 3*sim.Second {
		t.Errorf("blk-throttle worst p99 = %v, expected multi-second stalls", thr.WorstP99)
	}
	// bfq and iolatency violate repeatedly too.
	for _, m := range []string{"bfq", "iolatency"} {
		if by[m].Violations <= ioc.Violations {
			t.Errorf("%s violations = %d, expected more than iocost's %d", m, by[m].Violations, ioc.Violations)
		}
	}
}

func TestFig18Fig19FleetReductions(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet micro-simulations are slow")
	}
	// Fig18 and Fig19 at 3 trials and 600 hosts, on the shared grid.
	fig := func(kind fleet.OpKind) FleetResult {
		g := fleetGrid(kind)
		return sweepFleet(g.Curve(0, 3), g.Curve(1, 3), 600)
	}
	r18 := fig(fleet.PackageFetch)
	t.Logf("\n%s", FormatFleet(r18))
	if r18.Reduction < 5 || r18.Reduction > 30 {
		t.Errorf("package-fetch reduction = %.1fx, want ~10x", r18.Reduction)
	}
	r19 := fig(fleet.ContainerCleanup)
	t.Logf("\n%s", FormatFleet(r19))
	if r19.Reduction < 2 || r19.Reduction > 8 {
		t.Errorf("container-cleanup reduction = %.1fx, want ~3x", r19.Reduction)
	}
	// The weekly series decline as the migration progresses.
	for _, r := range []FleetResult{r18, r19} {
		n := r.Weekly.Len()
		if r.Weekly.Y[n-1] >= r.Weekly.Y[0]/2 {
			t.Errorf("%v: weekly failures did not decline: %v", r.Kind, r.Weekly.Y)
		}
	}
}

func TestAblationMerging(t *testing.T) {
	r := AblationMerging(5 * sim.Second)
	t.Logf("%v", r)
	if r.Gain < 1.5 {
		t.Errorf("merging gain = %.2fx on interleaved HDD streams, expected substantial", r.Gain)
	}
}

func TestFig17RemoteStorageProtection(t *testing.T) {
	rows := Fig17(Fig14Options{Baseline: 3 * sim.Second, Leak: 10 * sim.Second})
	t.Logf("\n%s", FormatFig17(rows))
	if len(rows) != 4 {
		t.Fatalf("expected 4 volume types, got %d", len(rows))
	}
	for _, r := range rows {
		// IOCost protects the service on every volume type (§4.7).
		if r.Retention < 0.6 {
			t.Errorf("%s: retention %.0f%%, protection failed", r.Device, r.Retention*100)
		}
		if r.BaselineRPS <= 0 {
			t.Errorf("%s: no baseline throughput", r.Device)
		}
	}
}

func TestTunedQoSSweepShape(t *testing.T) {
	// The §3.4 sweep: scenario-1 throughput is non-decreasing-then-flat in
	// vrate, scenario-2 p95 non-improving as vrate loosens.
	res := rcbTuneForTest()
	t.Logf("vrates=%v alone=%v leak-p95=%v -> %v", res.Vrates, res.AloneR, res.LeakP95, res.QoS)
	if res.AloneR[len(res.AloneR)-1] < res.AloneR[0] {
		t.Errorf("scenario-1 throughput fell with vrate: %v", res.AloneR)
	}
	if res.LeakP95[len(res.LeakP95)-1] < res.LeakP95[0]*0.8 {
		t.Errorf("scenario-2 protection improved with looser vrate: %v", res.LeakP95)
	}
	if res.QoS.VrateMin > res.QoS.VrateMax {
		t.Errorf("inverted band: %+v", res.QoS)
	}
	// The sweep picks only the vrate band; the latency targets are the
	// hand-tuned ones.
	hand := tune.HandTunedSSD(device.OlderGenSSD())
	hand.VrateMin, hand.VrateMax = res.QoS.VrateMin, res.QoS.VrateMax
	if res.QoS != hand {
		t.Errorf("swept QoS %+v, want tune.HandTunedSSD's targets %+v", res.QoS, hand)
	}
}

func TestSweepWeightRatios(t *testing.T) {
	rows := SweepWeightRatios(3 * sim.Second)
	t.Logf("\n%s", FormatWeightRatios(rows))
	for _, r := range rows {
		tol := 0.2
		if r.Configured >= 8 {
			// At extreme ratios the low-weight side is a handful of
			// in-flight requests; allow more slack.
			tol = 0.35
		}
		if r.Error > tol {
			t.Errorf("ratio %v:1 achieved %.2f:1 (error %.0f%%)", r.Configured, r.Achieved, r.Error*100)
		}
	}
}

func TestExtDegradation(t *testing.T) {
	rows := ExtDegradation(ExtDegradationOptions{Phase: 4 * sim.Second})
	t.Logf("\n%s", FormatExtDegradation(rows))
	var none, ioc ExtDegradationRow
	for _, r := range rows {
		if r.Mechanism == "none" {
			none = r
		} else {
			ioc = r
		}
	}
	// During the episode, iocost holds the sensitive workload's steady
	// p95 far below the unmanaged case and preserves its share.
	if ioc.DegradedP95 > none.DegradedP95/2 {
		t.Errorf("iocost degraded p95 %.2fms vs none %.2fms; expected strong protection",
			ioc.DegradedP95, none.DegradedP95)
	}
	if ioc.SensitiveShare < 5*none.SensitiveShare {
		t.Errorf("share under iocost %.0f%% vs none %.0f%%", ioc.SensitiveShare*100, none.SensitiveShare*100)
	}
	// vrate followed the device down.
	if ioc.VrateDuring > 0.5 {
		t.Errorf("vrate during episode = %.0f%%, expected deep descent", ioc.VrateDuring*100)
	}
}

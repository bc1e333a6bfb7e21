package core

import (
	"math"
	"testing"

	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/sim"
)

// newAttachedController builds a controller bound to a queue over an
// enterprise SSD so the clock and depletion plumbing work in unit tests.
func newAttachedController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	eng := sim.New()
	dev := device.NewSSD(eng, device.EnterpriseSSD(), 1)
	c := New(cfg)
	blk.New(eng, dev, c, 0)
	return c
}

// donationFixture builds the Figure 8 scenario: leaves B and H donate a
// total of 0.25 hweight which must flow to E, F and G in proportion to
// their hweights 0.16 : 0.04 : 0.35, i.e. +0.07, +0.02 and +0.16.
//
// Tree (weights in parentheses):
//
//	root ── B(25)            hwActive 0.25, donates down to 0.10
//	     ── D(55) ── H(20)   hwActive 0.20, donates down to 0.10
//	     │        └─ G(35)   hwActive 0.35, busy
//	     ── E(16)            hwActive 0.16, busy
//	     ── F(4)             hwActive 0.04, busy
func donationFixture(t *testing.T) (*Controller, map[string]*cgroup.Node) {
	t.Helper()
	h := cgroup.NewHierarchy()
	root := h.Root()
	nodes := map[string]*cgroup.Node{
		"B": root.NewChild("B", 25),
		"D": root.NewChild("D", 55),
		"E": root.NewChild("E", 16),
		"F": root.NewChild("F", 4),
	}
	nodes["H"] = nodes["D"].NewChild("H", 20)
	nodes["G"] = nodes["D"].NewChild("G", 35)
	for _, name := range []string{"B", "H", "G", "E", "F"} {
		nodes[name].Activate()
	}

	c := newAttachedController(t, Config{Model: MustLinearModel(fig6Params()), Period: 10 * sim.Millisecond})
	periodV := c.periodVns()

	// Usage: donors keep target = usage*1.25; B and H each target 0.10.
	use := func(name string, frac float64) {
		st := c.stateFor(nodes[name])
		st.usage = frac * periodV
	}
	use("B", 0.08) // target 0.10 of 0.25 entitlement -> donor
	use("H", 0.08) // target 0.10 of 0.20 entitlement -> donor
	use("G", 0.35) // fully used -> not a donor
	use("E", 0.16)
	use("F", 0.04)
	return c, nodes
}

func TestDonationFig8Example(t *testing.T) {
	c, nodes := donationFixture(t)

	if got := c.donate(); got != 2 {
		t.Fatalf("donate() reported %d donors, want 2 (B and H)", got)
	}

	want := map[string]float64{
		"B": 0.10,
		"H": 0.10,
		"E": 0.16 + 0.25*16.0/55.0, // 0.2327
		"F": 0.04 + 0.25*4.0/55.0,  // 0.0582
		"G": 0.35 + 0.25*35.0/55.0, // 0.5091
	}
	for name, w := range want {
		got := nodes[name].HweightInuse()
		if math.Abs(got-w) > 1e-9 {
			t.Errorf("%s: hweight inuse = %.6f, want %.6f", name, got, w)
		}
	}

	// The donated weights themselves: only B, D and H change.
	if got := nodes["E"].Inuse(); got != 16 {
		t.Errorf("E inuse weight changed to %v; non-donors must keep their weight", got)
	}
	if got := nodes["G"].Inuse(); got != 35 {
		t.Errorf("G inuse weight changed to %v; non-donors must keep their weight", got)
	}
	if nodes["B"].Inuse() >= nodes["B"].Weight() {
		t.Error("donor B's inuse weight did not decrease")
	}
	if nodes["D"].Inuse() >= nodes["D"].Weight() {
		t.Error("inner node D on the donor path must have a lowered inuse weight")
	}
}

func TestDonationLeafHweightsSumToOne(t *testing.T) {
	c, nodes := donationFixture(t)
	c.donate()
	sum := 0.0
	for _, name := range []string{"B", "H", "G", "E", "F"} {
		sum += nodes[name].HweightInuse()
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("leaf hweight_inuse sum = %.9f, want 1", sum)
	}
}

func TestDonationRescindRestoresWeights(t *testing.T) {
	c, nodes := donationFixture(t)
	c.donate()

	// Next pass with everyone busy must rescind all adjustments.
	periodV := c.periodVns()
	for _, st := range c.order {
		st.usage = st.cg.HweightActive() * periodV
	}
	if got := c.donate(); got != 0 {
		t.Fatalf("donate() reported %d donors, want 0", got)
	}
	for name, n := range nodes {
		if n.Inuse() != n.Weight() {
			t.Errorf("%s: inuse %v != weight %v after rescind", name, n.Inuse(), n.Weight())
		}
	}
}

func TestDonationThrottledCgroupDoesNotDonate(t *testing.T) {
	c, nodes := donationFixture(t)
	// B used little but was throttled during the period — it must not
	// donate (it is short on budget, not long).
	c.stateFor(nodes["B"]).hadWait = true
	c.donate()
	if nodes["B"].Inuse() != nodes["B"].Weight() {
		t.Error("throttled cgroup B donated despite having waited for budget")
	}
	// H still donates.
	if nodes["H"].Inuse() >= nodes["H"].Weight() {
		t.Error("H should still donate")
	}
}

func TestDonationFlatTwoChildren(t *testing.T) {
	// The paper's Figure 7 high-level example: A(weight 1) and B(weight
	// 2); B uses half its 2/3 budget, donating so that A's share grows.
	h := cgroup.NewHierarchy()
	a := h.Root().NewChild("A", 100)
	b := h.Root().NewChild("B", 200)
	a.Activate()
	b.Activate()

	c := newAttachedController(t, Config{Model: MustLinearModel(fig6Params()), Period: 10 * sim.Millisecond})
	periodV := c.periodVns()
	c.stateFor(a).usage = periodV * 1 / 3 // A saturates its third
	c.stateFor(b).usage = periodV * 1 / 3 // B uses half of its two thirds

	if got := c.donate(); got != 1 {
		t.Fatalf("donate() = %d donors, want 1", got)
	}
	// B's target is usage*1.25 = 5/12; A receives the rest.
	wantB := (1. / 3.) * donationHeadroom
	if got := b.HweightInuse(); math.Abs(got-wantB) > 1e-9 {
		t.Errorf("B hweight inuse = %.4f, want %.4f", got, wantB)
	}
	if got := a.HweightInuse(); math.Abs(got-(1-wantB)) > 1e-9 {
		t.Errorf("A hweight inuse = %.4f, want %.4f", got, 1-wantB)
	}
}

// TestDonationTwoHierarchiesDeterministic: a controller serving two cgroup
// hierarchies (colliding IDs go through stateForeign) must run the weight
// transfer on both roots, in a fixed order, so every run lands on the same
// inuse weights.
func TestDonationTwoHierarchiesDeterministic(t *testing.T) {
	run := func() []float64 {
		c := newAttachedController(t, Config{Model: MustLinearModel(fig6Params()), Period: 10 * sim.Millisecond})
		periodV := c.periodVns()
		var leaves []*cgroup.Node
		for _, w := range []float64{100, 300} {
			h := cgroup.NewHierarchy()
			a := h.Root().NewChild("A", w)
			b := h.Root().NewChild("B", 200)
			a.Activate()
			b.Activate()
			c.stateFor(a).usage = a.HweightActive() * periodV       // saturated
			c.stateFor(b).usage = b.HweightActive() * periodV * 0.3 // donor
			leaves = append(leaves, a, b)
		}
		if got := c.donate(); got != 2 {
			t.Fatalf("donate() = %d donors, want 2 (one B per hierarchy)", got)
		}
		var inuse []float64
		for i, n := range leaves {
			if i%2 == 1 && n.Inuse() >= n.Weight() {
				t.Errorf("hierarchy %d: donor B kept inuse %v (weight %v): its root's transfer never ran",
					i/2, n.Inuse(), n.Weight())
			}
			inuse = append(inuse, n.Inuse())
		}
		return inuse
	}
	want := run()
	for i := 1; i < 20; i++ {
		got := run()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("run %d: leaf %d inuse %v, first run %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestDonationDegenerateAllDonate(t *testing.T) {
	// Every leaf idle enough to donate: weights must stay finite and
	// positive, and hweights must still sum to 1.
	h := cgroup.NewHierarchy()
	a := h.Root().NewChild("A", 100)
	b := h.Root().NewChild("B", 100)
	a.Activate()
	b.Activate()

	c := newAttachedController(t, Config{Model: MustLinearModel(fig6Params()), Period: 10 * sim.Millisecond})
	periodV := c.periodVns()
	c.stateFor(a).usage = periodV * 0.01
	c.stateFor(b).usage = periodV * 0.02
	c.donate()

	for _, n := range []*cgroup.Node{a, b} {
		hw := n.HweightInuse()
		if math.IsNaN(hw) || math.IsInf(hw, 0) || hw <= 0 || hw > 1 {
			t.Fatalf("%s: degenerate hweight %v", n.Name(), hw)
		}
	}
	sum := a.HweightInuse() + b.HweightInuse()
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("hweight sum = %v, want 1", sum)
	}
}

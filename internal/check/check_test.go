package check_test

import (
	"strings"
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/check"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/tune"
)

// collector accumulates violations instead of panicking.
type collector struct{ msgs []string }

func (c *collector) fail(msg string) { c.msgs = append(c.msgs, msg) }

func (c *collector) hasMatch(substr string) bool {
	for _, m := range c.msgs {
		if strings.Contains(m, substr) {
			return true
		}
	}
	return false
}

func newSanitized(t *testing.T, inner blk.Controller, col *collector) (*sim.Engine, *blk.Queue, *check.Sanitizer, *cgroup.Node) {
	t.Helper()
	eng := sim.New()
	dev := device.NewSSD(eng, device.OlderGenSSD(), 1)
	h := cgroup.NewHierarchy()
	san := check.Wrap(inner, check.Options{Hier: h, Fail: col.fail})
	q := blk.New(eng, dev, san, 64)
	return eng, q, san, h.Root().NewChild("w", 100)
}

func TestCleanRunHasNoViolations(t *testing.T) {
	col := &collector{}
	eng, q, san, cg := newSanitized(t, ctl.NewNone(), col)
	for i := 0; i < 200; i++ {
		op := bio.Read
		if i%3 == 0 {
			op = bio.Write
		}
		q.Submit(&bio.Bio{Op: op, Off: int64(i) << 16, Size: 4096, CG: cg})
	}
	eng.Run()
	san.CheckNow()
	san.CheckDrained()
	if san.Violations() != 0 {
		t.Fatalf("clean run reported %d violations: %q", san.Violations(), col.msgs)
	}
	if san.Outstanding() != 0 {
		t.Fatalf("%d bios outstanding after drain", san.Outstanding())
	}
}

func TestSanitizerIsTransparent(t *testing.T) {
	san := check.Wrap(ctl.NewBFQ(), check.Options{Fail: func(string) {}})
	if got := san.Name(); got != "bfq" {
		t.Errorf("Name() = %q, want the inner controller's %q", got, "bfq")
	}
	if _, ok := san.Inner().(*ctl.BFQ); !ok {
		t.Errorf("Inner() = %T, want *ctl.BFQ", san.Inner())
	}
}

// dropCtl swallows every dropNth bio instead of issuing it — a lost-bio bug.
type dropCtl struct {
	q *blk.Queue
	n int
}

func (d *dropCtl) Name() string         { return "drop" }
func (d *dropCtl) Attach(q *blk.Queue)  { d.q = q }
func (d *dropCtl) Completed(b *bio.Bio) {}
func (d *dropCtl) Submit(b *bio.Bio) {
	d.n++
	if d.n%5 == 0 {
		return // bug: bio vanishes
	}
	d.q.Issue(b)
}

func TestDroppedBioIsReportedAsLost(t *testing.T) {
	col := &collector{}
	eng, q, san, cg := newSanitized(t, &dropCtl{}, col)
	for i := 0; i < 20; i++ {
		q.Submit(&bio.Bio{Op: bio.Read, Off: int64(i) << 16, Size: 4096, CG: cg})
	}
	eng.Run()
	san.CheckDrained()
	if san.Violations() == 0 {
		t.Fatal("sanitizer missed the dropped bios")
	}
	if !col.hasMatch("bio lost") {
		t.Errorf("no lost-bio violation in %q", col.msgs)
	}
	if got := san.Outstanding(); got != 4 {
		t.Errorf("Outstanding = %d, want 4 dropped bios", got)
	}
}

// doubleCtl issues every bio twice — a duplication bug.
type doubleCtl struct{ q *blk.Queue }

func (d *doubleCtl) Name() string         { return "double" }
func (d *doubleCtl) Attach(q *blk.Queue)  { d.q = q }
func (d *doubleCtl) Completed(b *bio.Bio) {}
func (d *doubleCtl) Submit(b *bio.Bio) {
	d.q.Issue(b)
	d.q.Issue(b) // bug
}

func TestDoubleIssueIsCaught(t *testing.T) {
	col := &collector{}
	eng, q, san, cg := newSanitized(t, &doubleCtl{}, col)
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg})
	eng.Run()
	if san.Violations() == 0 {
		t.Fatal("sanitizer missed the double issue")
	}
	if !col.hasMatch("issued twice") {
		t.Errorf("no double-issue violation in %q", col.msgs)
	}
}

// resubmitCtl completes a bio then feeds it through the queue again without
// the workload resubmitting it.
type resubmitCtl struct{ q *blk.Queue }

func (r *resubmitCtl) Name() string        { return "resubmit" }
func (r *resubmitCtl) Attach(q *blk.Queue) { r.q = q }
func (r *resubmitCtl) Submit(b *bio.Bio)   { r.q.Issue(b) }
func (r *resubmitCtl) Completed(b *bio.Bio) {
	if b.Flags.Has(bio.Meta) {
		return
	}
	b.Flags |= bio.Meta
	r.q.Issue(b) // bug: completed bio re-enters the device
}

func TestCompletedBioReissueIsCaught(t *testing.T) {
	col := &collector{}
	eng, q, san, cg := newSanitized(t, &resubmitCtl{}, col)
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg})
	eng.Run()
	if san.Violations() == 0 {
		t.Fatal("sanitizer missed the post-completion reissue")
	}
	if !col.hasMatch("issued without being submitted") {
		t.Errorf("unexpected violation set: %q", col.msgs)
	}
}

func TestViolationCapLimitsCascade(t *testing.T) {
	col := &collector{}
	eng := sim.New()
	dev := device.NewSSD(eng, device.OlderGenSSD(), 1)
	san := check.Wrap(&dropCtl{}, check.Options{Fail: col.fail, MaxViolations: 3})
	q := blk.New(eng, dev, san, 64)
	h := cgroup.NewHierarchy()
	cg := h.Root().NewChild("w", 100)
	for i := 0; i < 500; i++ {
		q.Submit(&bio.Bio{Op: bio.Read, Off: int64(i) << 16, Size: 4096, CG: cg})
	}
	eng.Run()
	san.CheckDrained()
	if len(col.msgs) > 3 {
		t.Errorf("cap of 3 did not hold: %d messages delivered", len(col.msgs))
	}
	if san.Violations() <= 3 {
		t.Errorf("Violations() = %d, want the uncapped count", san.Violations())
	}
}

func TestDeepEverySamplingStillDrains(t *testing.T) {
	col := &collector{}
	eng := sim.New()
	dev := device.NewSSD(eng, device.OlderGenSSD(), 1)
	h := cgroup.NewHierarchy()
	san := check.Wrap(ctl.NewNone(), check.Options{Hier: h, Fail: col.fail, DeepEvery: 64})
	q := blk.New(eng, dev, san, 64)
	cg := h.Root().NewChild("w", 100)
	for i := 0; i < 300; i++ {
		q.Submit(&bio.Bio{Op: bio.Read, Off: int64(i) << 16, Size: 4096, CG: cg})
	}
	eng.Run()
	san.CheckNow()
	san.CheckDrained()
	if san.Violations() != 0 {
		t.Fatalf("sampled run reported %d violations: %q", san.Violations(), col.msgs)
	}
}

func TestPanicsByDefaultOnViolation(t *testing.T) {
	eng := sim.New()
	dev := device.NewSSD(eng, device.OlderGenSSD(), 1)
	san := check.Wrap(&doubleCtl{}, check.Options{})
	q := blk.New(eng, dev, san, 64)
	h := cgroup.NewHierarchy()
	cg := h.Root().NewChild("w", 100)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on violation with nil Fail")
		}
	}()
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg})
	eng.Run()
}

// TestRepeatedTimeoutsCompleteOnce runs iocost on a newer-gen SSD through
// a 120ms device stall with a 30ms deadline and two retries, so a bio's
// first attempt and its retries all time out before the stall releases
// their late completions. Each late completion must be dropped: a queue
// that remembered only that a bio had timed out, not how many attempts
// were still outstanding, finished the second late completion as a real
// one and completed the bio twice.
func TestRepeatedTimeoutsCompleteOnce(t *testing.T) {
	col := &collector{}
	eng := sim.New()
	spec := device.NewerGenSSD()
	plan := fault.Plan{Episodes: []fault.Episode{{Kind: fault.Stall, At: 20 * sim.Millisecond, Dur: 120 * sim.Millisecond}}}
	dev, err := fault.NewInjector(eng, device.NewSSD(eng, spec, 1), plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := cgroup.NewHierarchy()
	inner := core.New(core.Config{
		Model: core.MustLinearModel(tune.IdealSSDParams(spec)),
		QoS:   tune.HandTunedSSD(spec),
	})
	san := check.Wrap(inner, check.Options{Hier: h, Fail: col.fail})
	q := blk.New(eng, dev, san, 0)
	q.SetRetryPolicy(blk.RetryPolicy{MaxRetries: 2, Backoff: sim.Millisecond, Deadline: 30 * sim.Millisecond})
	cgs := []*cgroup.Node{h.Root().NewChild("a", 200), h.Root().NewChild("b", 100)}
	off := int64(0)
	tick := eng.NewTicker(500*sim.Microsecond, func() {
		for _, cg := range cgs {
			off += 1 << 16
			q.Submit(&bio.Bio{Op: bio.Read, Off: off, Size: 4096, CG: cg})
		}
	})
	eng.RunUntil(200 * sim.Millisecond)
	tick.Stop()
	eng.RunUntil(sim.Second)
	san.CheckNow()
	if q.Timeouts() == 0 || q.LateCompletions() != q.Timeouts() {
		t.Errorf("timeouts %d, late completions dropped %d: want equal and non-zero", q.Timeouts(), q.LateCompletions())
	}
	if q.Failures() == 0 {
		t.Error("no bio exhausted its retries; the stall is too short to time an attempt out three times")
	}
	if san.Violations() != 0 {
		t.Fatalf("%d violations, first: %q", san.Violations(), col.msgs[0])
	}
	if san.Outstanding() != 0 {
		t.Errorf("%d bios outstanding after the run drained", san.Outstanding())
	}
}

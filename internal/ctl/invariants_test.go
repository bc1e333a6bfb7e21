package ctl

// White-box tests of the baseline controllers' sanitizer self-checks: clean
// runs pass and injected state corruption is caught.

import (
	"strings"
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/sim"
)

// selfChecker mirrors check.SelfChecker without importing the check package.
type selfChecker interface {
	CheckInvariants(fail func(msg string))
}

func violations(sc selfChecker) []string {
	var msgs []string
	sc.CheckInvariants(func(m string) { msgs = append(msgs, m) })
	return msgs
}

func runMixedLoad(t *testing.T, c blk.Controller) {
	t.Helper()
	eng := sim.New()
	dev := device.NewSSD(eng, device.OlderGenSSD(), 1)
	q := blk.New(eng, dev, c, 32)
	h := cgroup.NewHierarchy()
	a := h.Root().NewChild("a", 100)
	b := h.Root().NewChild("b", 300)
	sc := c.(selfChecker)
	for i := 0; i < 400; i++ {
		cg := a
		if i%3 == 0 {
			cg = b
		}
		op := bio.Read
		if i%4 == 0 {
			op = bio.Write
		}
		q.Submit(&bio.Bio{Op: op, Off: int64(i) << 16, Size: 8192, CG: cg})
		if i%50 == 49 {
			if msgs := violations(sc); len(msgs) != 0 {
				t.Fatalf("%s: violations mid-burst: %q", c.Name(), msgs)
			}
			eng.RunUntil(eng.Now() + sim.Millisecond)
		}
	}
	// Controllers with periodic tickers keep the engine alive forever, so
	// drain with a bounded horizon rather than Run().
	eng.RunUntil(eng.Now() + 30*sim.Second)
	if msgs := violations(sc); len(msgs) != 0 {
		t.Errorf("%s: violations after drain: %q", c.Name(), msgs)
	}
	if q.Completions() != 400 {
		t.Errorf("%s: %d/400 completions", c.Name(), q.Completions())
	}
}

func TestSelfChecksCleanRuns(t *testing.T) {
	t.Run("bfq", func(t *testing.T) { runMixedLoad(t, NewBFQ()) })
	t.Run("iolatency", func(t *testing.T) { runMixedLoad(t, NewIOLatency()) })
	t.Run("kyber", func(t *testing.T) { runMixedLoad(t, NewKyber()) })
	t.Run("mq-deadline", func(t *testing.T) { runMixedLoad(t, NewMQDeadline()) })
	t.Run("blk-throttle", func(t *testing.T) { runMixedLoad(t, NewThrottle()) })
}

func wantViolation(t *testing.T, sc selfChecker, substr string) {
	t.Helper()
	msgs := violations(sc)
	if len(msgs) == 0 {
		t.Fatalf("injected corruption not caught (want %q)", substr)
	}
	for _, m := range msgs {
		if strings.Contains(m, substr) {
			return
		}
	}
	t.Errorf("no violation mentioning %q in %q", substr, msgs)
}

func TestSelfChecksCatchInjectedCorruption(t *testing.T) {
	eng := sim.New()
	dev := device.NewSSD(eng, device.OlderGenSSD(), 1)
	h := cgroup.NewHierarchy()
	cg := h.Root().NewChild("w", 100)

	t.Run("bfq lost queue", func(t *testing.T) {
		c := NewBFQ()
		q := blk.New(eng, dev, c, 32)
		_ = q
		bq := c.queueFor(cg)
		bq.pending.Push(&bio.Bio{Op: bio.Read, Size: 4096, CG: cg})
		c.active = nil // bug: pending work with nobody in service
		wantViolation(t, c, "would hang")
	})
	t.Run("bfq unbalanced inflight", func(t *testing.T) {
		c := NewBFQ()
		blk.New(eng, dev, c, 32)
		c.queueFor(cg).inFlight = 3 // bug: phantom in-flight ios
		wantViolation(t, c, "in-flight sum")
	})
	t.Run("iolatency stalled waiter", func(t *testing.T) {
		c := NewIOLatency()
		blk.New(eng, dev, c, 32)
		st := c.stateFor(cg)
		st.depth = 8
		st.inFlight = 2
		st.wait.Push(&bio.Bio{Op: bio.Read, Size: 4096, CG: cg})
		wantViolation(t, c, "would hang")
	})
	t.Run("kyber negative inuse", func(t *testing.T) {
		c := NewKyber()
		blk.New(eng, dev, c, 32)
		c.inUse[0] = -1 // bug: double-completed accounting
		wantViolation(t, c, "negative")
	})
	t.Run("mq-deadline desynced views", func(t *testing.T) {
		c := NewMQDeadline()
		blk.New(eng, dev, c, 32)
		c.reads.byOff = append(c.reads.byOff, &bio.Bio{Op: bio.Read, Off: 1, Size: 4096})
		wantViolation(t, c, "views disagree")
	})
	t.Run("throttle negative bucket", func(t *testing.T) {
		c := NewThrottle()
		blk.New(eng, dev, c, 32)
		c.state[cg] = &throttleState{}
		c.state[cg].nextIO[0] = -1
		wantViolation(t, c, "negative bucket")
	})
}

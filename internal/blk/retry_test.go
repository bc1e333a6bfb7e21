package blk_test

import (
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/sim"
)

// flakyDev is a device.Device that services every request in a fixed time
// (or attempt n in svcs[n-1], while svcs lasts) and errors the first
// `fails` attempts, recording when each attempt arrived — the instrument
// the backoff-schedule test reads.
type flakyDev struct {
	eng      *sim.Engine
	svc      sim.Time
	svcs     []sim.Time
	fails    int
	attempts []sim.Time
	inflight int
}

func (d *flakyDev) Name() string     { return "flaky" }
func (d *flakyDev) Parallelism() int { return 1 }
func (d *flakyDev) InFlight() int    { return d.inflight }

func (d *flakyDev) Submit(b *bio.Bio, done func(*bio.Bio)) {
	d.attempts = append(d.attempts, d.eng.Now())
	n := len(d.attempts)
	svc := d.svc
	if n <= len(d.svcs) {
		svc = d.svcs[n-1]
	}
	d.inflight++
	d.eng.After(svc, func() {
		d.inflight--
		if n <= d.fails {
			b.Status = bio.StatusError
		}
		b.Completed = d.eng.Now()
		done(b)
	})
}

func newFlakyQueue(t *testing.T, svc sim.Time, fails int, p blk.RetryPolicy) (*sim.Engine, *flakyDev, *blk.Queue, *cgroup.Node) {
	t.Helper()
	eng := sim.New()
	dev := &flakyDev{eng: eng, svc: svc, fails: fails}
	q := blk.New(eng, dev, ctl.NewNone(), 0)
	q.SetRetryPolicy(p)
	h := cgroup.NewHierarchy()
	return eng, dev, q, h.Root().NewChild("w", 100)
}

// TestRetryBackoffSchedule pins the requeue schedule: a failed attempt is
// retried Backoff<<n after its completion, for n = 0,1,2,...
func TestRetryBackoffSchedule(t *testing.T) {
	const svc = 100 * sim.Microsecond
	policy := blk.RetryPolicy{MaxRetries: 3, Backoff: sim.Millisecond}
	eng, dev, q, cg := newFlakyQueue(t, svc, 3, policy)

	var final *bio.Bio
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg,
		OnDone: func(b *bio.Bio) { final = b }})
	eng.Run()

	if final == nil {
		t.Fatal("bio never reached OnDone")
	}
	if final.Status != bio.StatusOK || final.Failed() {
		t.Fatalf("bio should succeed on the last retry: status=%v", final.Status)
	}
	if final.Retries != 3 {
		t.Errorf("Retries = %d, want 3", final.Retries)
	}
	// Attempt k fails at attempts[k]+svc and requeues after Backoff<<k:
	// with a 1ms backoff the gaps are exactly 1ms, 2ms, 4ms.
	if len(dev.attempts) != 4 {
		t.Fatalf("device saw %d attempts, want 4", len(dev.attempts))
	}
	for k := 0; k < 3; k++ {
		got := dev.attempts[k+1] - (dev.attempts[k] + svc)
		want := policy.Backoff << uint(k)
		if got != want {
			t.Errorf("retry %d requeued %v after failure, want %v", k+1, got, want)
		}
	}
	if q.Retries() != 3 || q.Errors() != 3 || q.Failures() != 0 {
		t.Errorf("counters: retries=%d errors=%d failures=%d, want 3/3/0",
			q.Retries(), q.Errors(), q.Failures())
	}
	if q.Completions() != 4 {
		t.Errorf("Completions = %d, want 4 (one per attempt)", q.Completions())
	}
}

// TestRetryExhaustionFails pins the give-up path: more consecutive failures
// than MaxRetries delivers the bio to OnDone with its error status intact.
func TestRetryExhaustionFails(t *testing.T) {
	policy := blk.RetryPolicy{MaxRetries: 2, Backoff: sim.Millisecond}
	eng, dev, q, cg := newFlakyQueue(t, 100*sim.Microsecond, 10, policy)

	var final *bio.Bio
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg,
		OnDone: func(b *bio.Bio) { final = b }})
	eng.Run()

	if final == nil {
		t.Fatal("bio never reached OnDone")
	}
	if !final.Failed() || final.Status != bio.StatusError {
		t.Errorf("exhausted bio should fail: status=%v", final.Status)
	}
	if len(dev.attempts) != 3 {
		t.Errorf("device saw %d attempts, want 3 (1 + MaxRetries)", len(dev.attempts))
	}
	if q.Failures() != 1 {
		t.Errorf("Failures = %d, want 1", q.Failures())
	}
}

// TestZeroPolicyDeliversErrorsUnretried pins the compatibility contract:
// the zero RetryPolicy neither retries nor times out, so fault-free runs
// stay byte-identical to historical ones and errors surface directly.
func TestZeroPolicyDeliversErrorsUnretried(t *testing.T) {
	eng, dev, q, cg := newFlakyQueue(t, 100*sim.Microsecond, 1, blk.RetryPolicy{})

	var final *bio.Bio
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg,
		OnDone: func(b *bio.Bio) { final = b }})
	eng.Run()

	if final == nil {
		t.Fatal("bio never reached OnDone")
	}
	if !final.Failed() || final.Retries != 0 {
		t.Errorf("zero policy must not retry: status=%v retries=%d", final.Status, final.Retries)
	}
	if len(dev.attempts) != 1 {
		t.Errorf("device saw %d attempts, want 1", len(dev.attempts))
	}
}

// hangDev accepts requests and never completes them.
type hangDev struct{ inflight int }

func (d *hangDev) Name() string                           { return "hang" }
func (d *hangDev) Parallelism() int                       { return 1 }
func (d *hangDev) InFlight() int                          { return d.inflight }
func (d *hangDev) Submit(b *bio.Bio, done func(*bio.Bio)) { d.inflight++ }

// TestDeadlineTimesOutHungDevice pins the timeout path: a dispatched bio
// that outlives the policy deadline completes with StatusTimeout and is
// retried on schedule.
func TestDeadlineTimesOutHungDevice(t *testing.T) {
	eng := sim.New()
	dev := &hangDev{}
	q := blk.New(eng, dev, ctl.NewNone(), 0)
	q.SetRetryPolicy(blk.RetryPolicy{MaxRetries: 1, Backoff: sim.Millisecond, Deadline: 10 * sim.Millisecond})
	cg := cgroup.NewHierarchy().Root().NewChild("w", 100)

	var final *bio.Bio
	var doneAt sim.Time
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg,
		OnDone: func(b *bio.Bio) { final, doneAt = b, eng.Now() }})
	eng.Run()

	if final == nil {
		t.Fatal("hung bio never timed out")
	}
	if final.Status != bio.StatusTimeout {
		t.Errorf("status = %v, want timeout", final.Status)
	}
	if q.Timeouts() != 2 {
		t.Errorf("Timeouts = %d, want 2 (first attempt + retry)", q.Timeouts())
	}
	// Timeline: timeout at 10ms, requeue at 11ms, second timeout at 21ms.
	if want := 21 * sim.Millisecond; doneAt != want {
		t.Errorf("final delivery at %v, want %v", doneAt, want)
	}
}

// TestLateCompletionAfterTimeout pins the blk_mq_rq_timed_out analogue: a
// device answer arriving after its bio timed out is dropped and counted,
// not delivered twice.
func TestLateCompletionAfterTimeout(t *testing.T) {
	eng, _, q, cg := newFlakyQueue(t, 50*sim.Millisecond, 0, blk.RetryPolicy{
		MaxRetries: 0, Backoff: sim.Millisecond, Deadline: 10 * sim.Millisecond,
	})

	deliveries := 0
	q.Submit(&bio.Bio{Op: bio.Read, Off: 4096, Size: 4096, CG: cg,
		OnDone: func(b *bio.Bio) { deliveries++ }})
	eng.Run()

	if deliveries != 1 {
		t.Errorf("bio delivered %d times, want exactly once", deliveries)
	}
	if q.Timeouts() != 1 || q.LateCompletions() != 1 {
		t.Errorf("timeouts=%d late=%d, want 1/1", q.Timeouts(), q.LateCompletions())
	}
}

// pooledRead draws a read from q's pool, charged to cg.
func pooledRead(q *blk.Queue, cg *cgroup.Node, onDone func(*bio.Bio)) *bio.Bio {
	b := q.BioPool().Get()
	b.Op, b.Off, b.Size, b.CG, b.OnDone = bio.Read, 4096, 4096, cg, onDone
	return b
}

// TestTimedOutBioRecycledAtLateCompletion pins who owns a timed-out bio:
// after its final OnDone the device still holds it, so the block layer
// keeps it out of the pool until the late completion arrives, and
// recycles it exactly once, there.
func TestTimedOutBioRecycledAtLateCompletion(t *testing.T) {
	eng, _, q, cg := newFlakyQueue(t, 50*sim.Millisecond, 0, blk.RetryPolicy{
		MaxRetries: 0, Backoff: sim.Millisecond, Deadline: 10 * sim.Millisecond,
	})
	pool := q.BioPool()

	var doneAt sim.Time
	b := pooledRead(q, cg, func(*bio.Bio) { doneAt = eng.Now() })
	gen := b.Gen()
	q.Submit(b)
	eng.RunUntil(49 * sim.Millisecond)
	if doneAt != 10*sim.Millisecond {
		t.Fatalf("final delivery at %v, want the 10ms deadline", doneAt)
	}
	if b.Gen() != gen || pool.Free() != 0 || pool.Recycled() != 0 {
		t.Errorf("timed-out bio recycled before its late completion: gen %d -> %d, Free %d, Recycled %d",
			gen, b.Gen(), pool.Free(), pool.Recycled())
	}
	eng.Run()
	if q.LateCompletions() != 1 {
		t.Fatalf("LateCompletions = %d, want 1", q.LateCompletions())
	}
	if b.Gen() != gen+1 || pool.Free() != 1 || pool.Recycled() != 1 {
		t.Errorf("late completion did not recycle the bio once: gen %d -> %d, Free %d, Recycled %d",
			gen, b.Gen(), pool.Free(), pool.Recycled())
	}
}

// TestLateCompletionDuringRetryKeepsBio: the first attempt's late
// completion arrives while the retry is in flight. It must not recycle the
// bio; the retry's final completion does, once.
func TestLateCompletionDuringRetryKeepsBio(t *testing.T) {
	eng, dev, q, cg := newFlakyQueue(t, 0, 0, blk.RetryPolicy{
		MaxRetries: 1, Backoff: sim.Millisecond, Deadline: 10 * sim.Millisecond,
	})
	// Attempt 1 times out at 10ms and answers at 15ms; the retry is
	// dispatched at 11ms and completes at 16ms.
	dev.svcs = []sim.Time{15 * sim.Millisecond, 5 * sim.Millisecond}
	pool := q.BioPool()

	deliveries := 0
	b := pooledRead(q, cg, func(b *bio.Bio) {
		deliveries++
		if b.Status != bio.StatusOK {
			t.Errorf("retry delivered status %v, want ok", b.Status)
		}
	})
	gen := b.Gen()
	q.Submit(b)
	eng.RunUntil(15*sim.Millisecond + 1)
	if q.LateCompletions() != 1 || deliveries != 0 {
		t.Fatalf("at 15ms: late completions %d, deliveries %d; want 1, 0", q.LateCompletions(), deliveries)
	}
	if b.Gen() != gen || pool.Free() != 0 {
		t.Errorf("late completion recycled a bio whose retry is in flight: gen %d -> %d, Free %d", gen, b.Gen(), pool.Free())
	}
	eng.Run()
	if deliveries != 1 {
		t.Fatalf("bio delivered %d times, want once", deliveries)
	}
	if b.Gen() != gen+1 || pool.Recycled() != 1 {
		t.Errorf("final completion did not recycle the bio once: gen %d -> %d, Recycled %d", gen, b.Gen(), pool.Recycled())
	}
}

// TestRetryOvertakingLateCompletionKeepsBio: the retry is faster than the
// timed-out first attempt, so the device answers the retry (13ms) before
// the first attempt (15ms). The two answers carry the same bio, so the
// queue drops the first to arrive as the late one and finishes the bio at
// the second: the device holds no attempt of it when it is recycled, and
// a bio drawn in between is a different one and completes normally.
func TestRetryOvertakingLateCompletionKeepsBio(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fails int
		want  bio.Status
	}{
		{"ok", 0, bio.StatusOK},
		{"error", 2, bio.StatusError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, dev, q, cg := newFlakyQueue(t, sim.Millisecond, tc.fails, blk.RetryPolicy{
				MaxRetries: 1, Backoff: sim.Millisecond, Deadline: 10 * sim.Millisecond,
			})
			// Attempt 1 times out at 10ms and answers at 15ms; the retry
			// is dispatched at 11ms and answers at 13ms.
			dev.svcs = []sim.Time{15 * sim.Millisecond, 2 * sim.Millisecond}
			pool := q.BioPool()

			var doneAt []sim.Time
			b := pooledRead(q, cg, func(b *bio.Bio) {
				doneAt = append(doneAt, eng.Now())
				if b.Status != tc.want {
					t.Errorf("delivered status %v, want %v", b.Status, tc.want)
				}
			})
			gen := b.Gen()
			q.Submit(b)
			eng.RunUntil(14 * sim.Millisecond)
			if q.LateCompletions() != 1 || len(doneAt) != 0 {
				t.Fatalf("at 14ms: late completions %d, deliveries %v; want 1, none", q.LateCompletions(), doneAt)
			}
			if b.Gen() != gen || pool.Free() != 0 || pool.Recycled() != 0 {
				t.Errorf("bio recycled while the device holds an attempt: gen %d -> %d, Free %d, Recycled %d",
					gen, b.Gen(), pool.Free(), pool.Recycled())
			}

			// A bio drawn now cannot be b; it completes on its own.
			var otherDone int
			other := pooledRead(q, cg, func(o *bio.Bio) {
				otherDone++
				if o.Status != bio.StatusOK {
					t.Errorf("bio drawn in between delivered status %v, want ok", o.Status)
				}
			})
			if other == b {
				t.Fatal("pool handed out the bio the device still holds")
			}
			other.Off = 8192
			q.Submit(other)
			eng.Run()

			if len(doneAt) != 1 || doneAt[0] != 15*sim.Millisecond {
				t.Errorf("bio delivered at %v, want once, at 15ms", doneAt)
			}
			if otherDone != 1 {
				t.Errorf("bio drawn in between delivered %d times, want once", otherDone)
			}
			if b.Gen() != gen+1 || pool.Recycled() != 2 || uint64(pool.Free()) != pool.Allocated() {
				t.Errorf("bios not recycled once each: gen %d -> %d, Recycled %d, Free %d of %d",
					gen, b.Gen(), pool.Recycled(), pool.Free(), pool.Allocated())
			}
		})
	}
}

// TestTimeoutsReuseBios: a closed loop whose every bio times out keeps
// reusing the pool's bios — each comes back at its late completion — so
// the pool stays the size of what is in flight.
func TestTimeoutsReuseBios(t *testing.T) {
	const (
		total = 2000
		depth = 4
	)
	eng, _, q, cg := newFlakyQueue(t, 50*sim.Millisecond, 0, blk.RetryPolicy{
		MaxRetries: 0, Backoff: sim.Millisecond, Deadline: 10 * sim.Millisecond,
	})
	submitted := 0
	var next func(*bio.Bio)
	next = func(*bio.Bio) {
		if submitted < total {
			submitted++
			q.Submit(pooledRead(q, cg, next))
		}
	}
	for range depth {
		next(nil)
	}
	eng.Run()
	if q.Timeouts() != total || q.LateCompletions() != total {
		t.Fatalf("timeouts %d, late completions %d; want %d each", q.Timeouts(), q.LateCompletions(), total)
	}
	if got := q.BioPool().Allocated(); got > 64 {
		t.Errorf("pool allocated %d bios for %d timed-out ones at depth %d, want at most 64", got, total, depth)
	}
	if got := q.BioPool().Recycled(); got != total {
		t.Errorf("Recycled = %d, want every one of the %d bios", got, total)
	}
}

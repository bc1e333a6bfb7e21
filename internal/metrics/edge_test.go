package metrics

import (
	"math"
	"testing"

	"github.com/iocost-sim/iocost/internal/sim"
)

// TestTimelineCapacityClamp pins the constructor's edge behaviour: requests
// below 16 buckets (including 0 and negatives) clamp to the 512 default,
// and exactly 16 is honored.
func TestTimelineCapacityClamp(t *testing.T) {
	for _, req := range []int{-1, 0, 1, 15} {
		tl := NewTimeline(sim.Millisecond, req)
		for i := 0; i < 600; i++ {
			tl.Record(sim.Time(i)*sim.Millisecond, 1)
		}
		if got := tl.Buckets(); got > 512 {
			t.Errorf("maxBuckets=%d: %d buckets exceeds the 512 default", req, got)
		}
		if tl.Resolution() != sim.Millisecond*2 {
			t.Errorf("maxBuckets=%d: resolution %v, want one doubling to 2ms", req, tl.Resolution())
		}
	}
	tl := NewTimeline(sim.Millisecond, 16)
	for i := 0; i < 17; i++ {
		tl.Record(sim.Time(i)*sim.Millisecond, 1)
	}
	if tl.Resolution() != 2*sim.Millisecond {
		t.Errorf("16-bucket timeline did not downsample at the 17th bucket: res=%v", tl.Resolution())
	}
	if got := tl.Buckets(); got > 16 {
		t.Errorf("16-bucket timeline holds %d buckets", got)
	}
}

// TestTimelineExactBoundary checks the sample that lands exactly on the
// capacity boundary: bucket index maxBuckets must trigger downsampling,
// index maxBuckets-1 must not.
func TestTimelineExactBoundary(t *testing.T) {
	tl := NewTimeline(sim.Millisecond, 16)
	tl.Record(15*sim.Millisecond, 1) // last valid bucket at res=1ms
	if tl.Resolution() != sim.Millisecond {
		t.Fatalf("bucket maxBuckets-1 downsampled early: res=%v", tl.Resolution())
	}
	tl.Record(16*sim.Millisecond, 1) // one past → double once
	if tl.Resolution() != 2*sim.Millisecond {
		t.Fatalf("bucket maxBuckets did not downsample: res=%v", tl.Resolution())
	}
	// A sample far past the end must double repeatedly until it fits,
	// never panic or truncate.
	tl.Record(sim.Time(1000)*sim.Millisecond, 7)
	if idx := int(1000 * sim.Millisecond / tl.Resolution()); idx >= 16 {
		t.Fatalf("resolution %v still cannot hold t=1s in 16 buckets", tl.Resolution())
	}
	// Mass is preserved across all doublings: 3 samples in total.
	var n uint64
	for _, c := range tl.cnt {
		n += c
	}
	if n != 3 {
		t.Fatalf("downsampling lost samples: %d of 3 remain", n)
	}
}

// TestTimelineNegativeTimeClamps checks samples before t=0 land in the
// first bucket instead of panicking on a negative index.
func TestTimelineNegativeTimeClamps(t *testing.T) {
	tl := NewTimeline(sim.Millisecond, 16)
	tl.Record(-5*sim.Millisecond, 3)
	s := tl.Series()
	if s.Len() != 1 {
		t.Fatalf("want 1 point, got %d", s.Len())
	}
	if s.X[0] != 0 || s.Y[0] != 3 {
		t.Fatalf("negative-time sample landed at (%v, %v), want (0, 3)", s.X[0], s.Y[0])
	}
}

// TestTimelineSeriesSkipsEmptyBuckets checks sparse recordings export only
// populated buckets, with bucket-mean values.
func TestTimelineSeriesSkipsEmptyBuckets(t *testing.T) {
	tl := NewTimeline(sim.Millisecond, 64)
	tl.Record(0, 2)
	tl.Record(0, 4)                  // same bucket → mean 3
	tl.Record(10*sim.Millisecond, 5) // gap of 9 empty buckets
	s := tl.Series()
	if s.Len() != 2 {
		t.Fatalf("want 2 points, got %d", s.Len())
	}
	if s.Y[0] != 3 {
		t.Errorf("bucket mean = %v, want 3", s.Y[0])
	}
	if s.X[1] != 0.01 || s.Y[1] != 5 {
		t.Errorf("second point = (%v, %v), want (0.01, 5)", s.X[1], s.Y[1])
	}
}

// TestPressureDecayMatchesClosedForm drives a constant 50% duty cycle for N
// whole windows and checks each avg against the closed form of the decayed
// recurrence: with per-window pressure P and decay d, after N windows
// avg = P·(1-d^N).
func TestPressureDecayMatchesClosedForm(t *testing.T) {
	var p Pressure
	const windows = 7
	const duty = 0.5
	for w := 0; w < windows; w++ {
		start := sim.Time(w) * PSIWindow
		p.Set(start, 1, 1) // some-stalled
		p.Set(start+sim.Time(duty*float64(PSIWindow)), 0, 0)
	}
	now := sim.Time(windows) * PSIWindow
	got := p.Some(now)
	for _, tc := range []struct {
		name    string
		horizon float64
		got     float64
	}{
		{"avg10", 10, got.Avg10},
		{"avg60", 60, got.Avg60},
		{"avg300", 300, got.Avg300},
	} {
		d := math.Exp(-PSIWindow.Seconds() / tc.horizon)
		want := 100 * duty * (1 - math.Pow(d, windows))
		if math.Abs(tc.got-want) > 1e-9 {
			t.Errorf("%s = %.9f, want closed-form %.9f", tc.name, tc.got, want)
		}
	}
	if got.Total != sim.Time(float64(windows)*duty*float64(PSIWindow)) {
		t.Errorf("total = %v, want exact integral %v", got.Total,
			sim.Time(float64(windows)*duty*float64(PSIWindow)))
	}
	// Full never accrued: inflight was non-zero whenever waiting was.
	if full := p.Full(now); full.Total != 0 || full.Avg10 != 0 {
		t.Errorf("full pressure accrued unexpectedly: %+v", full)
	}
}

// TestPressureMidWindowQueryDoesNotFold checks that querying mid-window
// reports the running averages without folding the incomplete window in.
func TestPressureMidWindowQueryDoesNotFold(t *testing.T) {
	var p Pressure
	p.Set(0, 1, 0) // fully stalled from t=0
	a := p.Some(PSIWindow / 2)
	if a.Avg10 != 0 {
		t.Errorf("incomplete window leaked into avg10: %v", a.Avg10)
	}
	if a.Total != PSIWindow/2 {
		t.Errorf("mid-window total = %v, want %v", a.Total, PSIWindow/2)
	}
	b := p.Some(PSIWindow)
	d10 := math.Exp(-PSIWindow.Seconds() / 10)
	want := 100 * (1 - d10)
	if math.Abs(b.Avg10-want) > 1e-9 {
		t.Errorf("after one full window avg10 = %v, want %v", b.Avg10, want)
	}
}

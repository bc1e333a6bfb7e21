package workload_test

import (
	"fmt"
	"testing"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/workload"
)

func statsPin(s *workload.Stats) string {
	return fmt.Sprintf("done=%d bytes=%d p50=%d p99=%d mean=%.3f",
		s.Done, s.Bytes, s.Latency.Quantile(0.5), s.Latency.Quantile(0.99), s.Latency.Mean())
}

// TestReplayerPinned pins a Replayer's exact output for a fixed profile
// and seed: two replayers contend on an iocost-controlled SSD, one is
// stopped halfway, and both directions' completions, bytes and latency
// quantiles plus the engine's event count must not move.
func TestReplayerPinned(t *testing.T) {
	eng := sim.New()
	spec := device.OlderGenSSD()
	c := core.New(core.Config{
		Model: core.MustLinearModel(core.LinearParams{
			RBps: spec.ReadBps, RSeqIOPS: 110000, RRandIOPS: 88000,
			WBps: spec.SustainedWBp, WSeqIOPS: 98000, WRandIOPS: 80000,
		}),
		QoS: core.QoS{
			RPct: 90, RLat: 500 * sim.Microsecond,
			WPct: 90, WLat: 65 * sim.Millisecond,
			VrateMin: 0.5, VrateMax: 1.2,
		},
	})
	q := blk.New(eng, device.NewSSD(eng, spec, 5), c, 0)
	h := cgroup.NewHierarchy()
	a := h.Root().NewChild("a", 200)
	b := h.Root().NewChild("b", 100)
	ra := workload.NewReplayer(q, a, workload.DemandProfile{
		Name: "a", ReadBps: 200e6, WriteBps: 50e6, ReadRandFrac: 0.8, WriteRandFrac: 0.3,
	}, 0, 11)
	rb := workload.NewReplayer(q, b, workload.DemandProfile{
		Name: "b", ReadBps: 100e6, WriteBps: 40e6, ReadRandFrac: 0.2, WriteRandFrac: 0.6,
		IOSize: 64 << 10,
	}, 16<<30, 12)
	ra.Start()
	rb.Start()
	eng.RunUntil(300 * sim.Millisecond)
	rb.Stop()
	eng.RunUntil(600 * sim.Millisecond)

	got := [...]string{
		"a.read " + statsPin(ra.ReadStats),
		"a.write " + statsPin(ra.WriteStats),
		"b.read " + statsPin(rb.ReadStats),
		"b.write " + statsPin(rb.WriteStats),
		fmt.Sprintf("events=%d", eng.EventsRun()),
	}
	want := [...]string{
		"a.read done=7095 bytes=116244480 p50=33554432 p99=56623104 mean=31966019.249",
		"a.write done=1774 bytes=29065216 p50=33554432 p99=56623104 mean=32041120.435",
		"b.read done=457 bytes=29949952 p50=62914560 p99=121634816 mean=62421612.475",
		"b.write done=183 bytes=11993088 p50=62914560 p99=121634816 mean=63230878.825",
		"events=28054",
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}

// TestReplayerResetMatchesFresh: a replayer reset under a deep backlog,
// with bios of its earlier run still queued, submits and counts exactly
// what a fresh replayer built at the reset instant does: the first reset
// leaves thousands of bios queued, and the second epoch counts reads that
// wait out their drain. The second epoch's write stream is so sparse (one 16 KiB write per 16 s) that its
// arrival is still pending at the next reset, which must leave that
// stream to its event.
func TestReplayerResetMatchesFresh(t *testing.T) {
	epochs := []workload.DemandProfile{
		{ReadBps: 700e6, WriteBps: 100e6, ReadRandFrac: 0.8, WriteRandFrac: 0.3},
		{ReadBps: 200e6, WriteBps: 1e3, ReadRandFrac: 0.5},
		{ReadBps: 150e6, WriteBps: 80e6, ReadRandFrac: 0.2, WriteRandFrac: 0.9, IOSize: 64 << 10},
	}
	const epoch = 400 * sim.Millisecond
	run := func(reset bool) (out []string, backlog int) {
		eng, q, cg := newRig(t)
		var w *workload.Replayer
		for i, p := range epochs {
			seed := uint64(40 + i)
			switch {
			case w == nil:
				w = workload.NewReplayer(q, cg, p, 0, seed)
			case reset:
				w.Reset(q, cg, p, 0, seed)
			default:
				w.Stop()
				w = workload.NewReplayer(q, cg, p, 0, seed)
			}
			if i == 1 {
				backlog = q.Waiting()
			}
			w.Start()
			eng.RunUntil(eng.Now() + epoch)
			out = append(out, fmt.Sprintf("epoch %d: read %s; write %s", i, statsPin(w.ReadStats), statsPin(w.WriteStats)))
		}
		return append(out, fmt.Sprintf("events=%d", eng.EventsRun())), backlog
	}
	got, backlog := run(true)
	want, _ := run(false)
	if backlog < 1000 {
		t.Fatalf("%d bios waiting at the first reset, want a deep backlog", backlog)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reset replayer %s\nfresh replayer %s", got[i], want[i])
		}
	}
}

// TestTraceReplayerPinned pins a TraceReplayer's exact output, including a
// time-scaled replay stopped before the trace ends.
func TestTraceReplayerPinned(t *testing.T) {
	var ops []workload.TraceOp
	for i := 0; i < 4000; i++ {
		op := bio.Read
		if i%3 == 0 {
			op = bio.Write
		}
		ops = append(ops, workload.TraceOp{
			At: sim.Time(i) * 37 * sim.Microsecond, Op: op,
			Off: int64(i*7919%100000) * 4096, Size: 4096 << uint(i%4),
		})
	}
	run := func(speed float64, stopAt sim.Time) string {
		eng, q, cg := newRig(t)
		w := workload.NewTraceReplayer(q, cg, ops)
		w.Speed = speed
		eng.RunUntil(5 * sim.Millisecond)
		w.Start()
		if stopAt > 0 {
			eng.RunUntil(stopAt)
			w.Stop()
		}
		eng.RunUntil(300 * sim.Millisecond)
		return fmt.Sprintf("%s done=%v events=%d", statsPin(w.Stats), w.Done(), eng.EventsRun())
	}
	got := [...]string{run(1, 0), run(2.5, 40*sim.Millisecond)}
	want := [...]string{
		"done=4000 bytes=61440000 p50=196608 p99=819200 mean=271106.009 done=true events=8000",
		"done=2365 bytes=36315136 p50=22020096 p99=41943040 mean=22318860.419 done=false events=4731",
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}

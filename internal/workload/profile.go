package workload

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
)

// DemandProfile describes a workload's steady-state IO demand, the axes of
// Figure 4: bytes per second by direction, and how much of each direction
// is random vs sequential.
type DemandProfile struct {
	Name string
	// ReadBps and WriteBps are demanded bytes/second.
	ReadBps  float64
	WriteBps float64
	// ReadRandFrac and WriteRandFrac are the random fractions in [0, 1].
	ReadRandFrac  float64
	WriteRandFrac float64
	// IOSize is the request size; 0 selects 16KiB.
	IOSize int64
}

// MetaProfiles returns IO-demand profiles shaped after the Figure 4
// workload population: two web services with moderate, evenly mixed IO; an
// overcommitted serverless platform; two caches doing heavy sequential IO
// to their backing store; and two non-storage services whose IO is mostly
// paging and software updates.
func MetaProfiles() []DemandProfile {
	return []DemandProfile{
		{Name: "web-a", ReadBps: 6e6, WriteBps: 5e6, ReadRandFrac: 0.5, WriteRandFrac: 0.5},
		{Name: "web-b", ReadBps: 9e6, WriteBps: 7e6, ReadRandFrac: 0.45, WriteRandFrac: 0.55},
		{Name: "serverless", ReadBps: 14e6, WriteBps: 11e6, ReadRandFrac: 0.65, WriteRandFrac: 0.4},
		{Name: "cache-a", ReadBps: 48e6, WriteBps: 35e6, ReadRandFrac: 0.1, WriteRandFrac: 0.05},
		{Name: "cache-b", ReadBps: 30e6, WriteBps: 55e6, ReadRandFrac: 0.15, WriteRandFrac: 0.05},
		{Name: "non-storage-a", ReadBps: 0.8e6, WriteBps: 0.5e6, ReadRandFrac: 0.8, WriteRandFrac: 0.3},
		{Name: "non-storage-b", ReadBps: 1.5e6, WriteBps: 0.9e6, ReadRandFrac: 0.7, WriteRandFrac: 0.4},
	}
}

// Replayer issues IO matching a DemandProfile: open-loop arrivals at the
// demanded rates with the demanded random/sequential mix.
type Replayer struct {
	q       *blk.Queue
	cg      *cgroup.Node
	profile DemandProfile
	// rnd picks each arrival's pattern; randRnd and seqRnd are split from
	// it for the two regions' offsets. They live here, not behind
	// pointers, so Reset reseeds them in place.
	rnd, randRnd, seqRnd rng.Source
	randReg              region
	seqReg               region
	// read and write are the current arrival streams. A stream is reused
	// only once no pending arrival refers to it (see Reset); streams holds
	// every stream w has built.
	read, write *replayStream
	streams     []*replayStream
	// readDone and writeDone are the stats' completion callbacks, built
	// once so a reset allocates no method value.
	readDone, writeDone func(*bio.Bio)

	ReadStats  *Stats
	WriteStats *Stats
}

// replayStream is one direction's open-loop arrival stream. Its gap and
// completion callback are fixed when it starts, so the arrival → submit
// → reschedule cycle allocates nothing.
type replayStream struct {
	w        *Replayer
	op       bio.Op
	randFrac float64
	gap      sim.Time
	onDone   func(*bio.Bio)
	next     sim.EventID // the pending arrival
	stopped  bool
}

// NewReplayer builds a profile replayer.
func NewReplayer(q *blk.Queue, cg *cgroup.Node, p DemandProfile, base int64, seed uint64) *Replayer {
	w := &Replayer{ReadStats: newStats(), WriteStats: newStats()}
	w.readDone, w.writeDone = w.ReadStats.observeSince, w.WriteStats.observeSince
	w.init(q, cg, p, base, seed)
	return w
}

// Reset stops w and makes it what NewReplayer(q, cg, p, base, seed) would
// build, reusing w's streams, sources and stats. The stats restart empty
// with the current instant as their floor: they count only bios submitted
// after it. That is every bio the reset replayer submits, since a
// stream's first arrival is at least one nanosecond after Start, and none
// of the bios w submitted before the reset, whose completions a fresh
// replayer's stats would never see. A bio the queue retries is
// resubmitted, which moves its submit time, so the floor is exact only
// while q retries none of w's bios across the reset; a queue with the
// zero RetryPolicy retries nothing.
//
// The streams' pending arrivals stay scheduled; being stopped, they
// submit nothing when they run, and a stream is not reused until its
// arrival has run (or its engine was reset).
func (w *Replayer) Reset(q *blk.Queue, cg *cgroup.Node, p DemandProfile, base int64, seed uint64) {
	w.Stop()
	now := q.Now()
	w.ReadStats.reset(now)
	w.WriteStats.reset(now)
	w.init(q, cg, p, base, seed)
}

func (w *Replayer) init(q *blk.Queue, cg *cgroup.Node, p DemandProfile, base int64, seed uint64) {
	if p.IOSize <= 0 {
		p.IOSize = 16 << 10
	}
	w.q, w.cg, w.profile = q, cg, p
	w.rnd.Reseed(rng.DeriveSeed(seed, 0x4e4f))
	w.rnd.Split(&w.randRnd)
	w.rnd.Split(&w.seqRnd)
	w.randReg = region{base: base, size: 8 << 30, rnd: &w.randRnd}
	w.seqReg = region{base: base + (8 << 30), size: 8 << 30, rnd: &w.seqRnd}
	w.read = w.stream(nil, bio.Read, p.ReadBps, p.ReadRandFrac, w.readDone)
	w.write = w.stream(w.read, bio.Write, p.WriteBps, p.WriteRandFrac, w.writeDone)
}

// stream returns a stream of w's, other than skip, that no pending
// arrival refers to, or a new one, set up for one direction.
func (w *Replayer) stream(skip *replayStream, op bio.Op, bps, randFrac float64, onDone func(*bio.Bio)) *replayStream {
	var s *replayStream
	for _, c := range w.streams {
		if c != skip && !c.next.Pending() {
			s = c
			break
		}
	}
	if s == nil {
		s = new(replayStream)
		w.streams = append(w.streams, s)
	}
	var gap sim.Time // 0: the direction has no demand and never starts
	if bps > 0 {
		gap = max(sim.Time(float64(w.profile.IOSize)/bps*1e9), 1)
	}
	*s = replayStream{w: w, op: op, randFrac: randFrac, gap: gap, onDone: onDone}
	return s
}

// Start begins both arrival streams.
func (w *Replayer) Start() {
	if w.read.gap > 0 {
		w.read.schedule()
	}
	if w.write.gap > 0 {
		w.write.schedule()
	}
}

// Stop ceases issuing.
func (w *Replayer) Stop() { w.read.stopped, w.write.stopped = true, true }

func (s *replayStream) schedule() {
	if s.stopped {
		return
	}
	s.next = s.w.q.Engine().AfterCall(s.gap, replayTick, s)
}

// replayTick is one arrival: submit a bio, then schedule the next arrival.
// It is a package-level func so scheduling it stores no closure.
func replayTick(a any) {
	s := a.(*replayStream)
	if s.stopped {
		return
	}
	w := s.w
	pat, reg := Sequential, &w.seqReg
	if w.rnd.Bool(s.randFrac) {
		pat, reg = Random, &w.randReg
	}
	b := w.q.BioPool().Get()
	b.Op = s.op
	b.Off = reg.offset(pat, w.profile.IOSize)
	b.Size = w.profile.IOSize
	b.CG = w.cg
	b.OnDone = s.onDone
	w.q.Submit(b)
	s.schedule()
}

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
	rnd     *rng.Source
	randReg region
	seqReg  region
	read    replayStream
	write   replayStream

	ReadStats  *Stats
	WriteStats *Stats
	stopped    bool
}

// replayStream is one direction's open-loop arrival stream. Its gap and
// completion callback are fixed at construction, so the arrival → submit
// → reschedule cycle allocates nothing.
type replayStream struct {
	w        *Replayer
	op       bio.Op
	randFrac float64
	gap      sim.Time
	onDone   func(*bio.Bio)
}

// NewReplayer builds a profile replayer.
func NewReplayer(q *blk.Queue, cg *cgroup.Node, p DemandProfile, base int64, seed uint64) *Replayer {
	if p.IOSize <= 0 {
		p.IOSize = 16 << 10
	}
	r := rng.Derive(seed, 0x4e4f)
	w := &Replayer{
		q: q, cg: cg, profile: p, rnd: r,
		randReg:    region{base: base, size: 8 << 30, rnd: r.Split()},
		seqReg:     region{base: base + (8 << 30), size: 8 << 30, rnd: r.Split()},
		ReadStats:  newStats(),
		WriteStats: newStats(),
	}
	w.read = w.newStream(bio.Read, p.ReadBps, p.ReadRandFrac, w.ReadStats)
	w.write = w.newStream(bio.Write, p.WriteBps, p.WriteRandFrac, w.WriteStats)
	return w
}

func (w *Replayer) newStream(op bio.Op, bps, randFrac float64, st *Stats) replayStream {
	var gap sim.Time // 0: the direction has no demand and never starts
	if bps > 0 {
		gap = max(sim.Time(float64(w.profile.IOSize)/bps*1e9), 1)
	}
	return replayStream{w: w, op: op, randFrac: randFrac, gap: gap, onDone: st.observe}
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
func (w *Replayer) Stop() { w.stopped = true }

func (s *replayStream) schedule() {
	if s.w.stopped {
		return
	}
	s.w.q.Engine().AfterCall(s.gap, replayTick, s)
}

// replayTick is one arrival: submit a bio, then schedule the next arrival.
// It is a package-level func so scheduling it stores no closure.
func replayTick(a any) {
	s := a.(*replayStream)
	w := s.w
	if w.stopped {
		return
	}
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

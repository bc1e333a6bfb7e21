// Package workload implements the synthetic IO and memory workloads the
// paper's experiments are built from: depth-based saturating readers and
// writers, latency-target load-shedding services (the online-service proxy
// of §4.2), think-time readers, rate-profile replayers, memory leakers and
// stress-style working-set touchers.
package workload

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/stats"
)

// Stats aggregates a workload's completions.
type Stats struct {
	Done    uint64
	Bytes   uint64
	Latency *stats.Histogram // submit-to-complete

	window stats.Counter
	// floor is the instant of the last reset: observeSince skips bios
	// submitted at or before it. It is -1 before any reset.
	floor sim.Time
}

func newStats() *Stats {
	return &Stats{Latency: stats.NewHistogram(), floor: -1}
}

func (s *Stats) observe(b *bio.Bio) {
	s.Done++
	s.Bytes += uint64(b.Size)
	s.Latency.Observe(int64(b.Latency()))
	s.window.Inc(1)
}

// observeSince is observe for the completion callback of a workload that
// resets its stats (Replayer.Reset): a bio submitted at or before the
// floor belongs to the workload's run before the reset. Workloads that
// never reset use observe and skip the check.
func (s *Stats) observeSince(b *bio.Bio) {
	if b.Submitted > s.floor {
		s.observe(b)
	}
}

// reset empties s and sets its floor to now.
func (s *Stats) reset(now sim.Time) {
	s.Latency.Reset()
	*s = Stats{Latency: s.Latency, floor: now}
}

// TakeWindow returns completions since the last call, for rate sampling.
func (s *Stats) TakeWindow() uint64 { return s.window.TakeWindow() }

// Pattern is an access pattern.
type Pattern uint8

const (
	// Random picks uniformly random aligned offsets in the region.
	Random Pattern = iota
	// Sequential advances linearly through the region, wrapping.
	Sequential
)

// region generates offsets for a workload. Every workload works within its
// own device region, as distinct files/partitions would.
type region struct {
	base, size int64
	next       int64
	rnd        *rng.Source
}

func (r *region) offset(p Pattern, ioSize int64) int64 {
	if p == Sequential {
		if r.next < r.base || r.next+ioSize > r.base+r.size {
			r.next = r.base
		}
		off := r.next
		r.next += ioSize
		return off
	}
	span := r.size - ioSize
	if span <= 0 {
		return r.base
	}
	return r.base + r.rnd.Int63n(span/ioSize)*ioSize
}

// Saturator keeps Depth requests in flight, the moral equivalent of fio
// with iodepth=Depth: as fast as the controller and device allow.
type Saturator struct {
	q   *blk.Queue
	cg  *cgroup.Node
	op  bio.Op
	pat Pattern
	sz  int64
	dep int
	reg region

	Stats   *Stats
	stopped bool
	// onDone is the completion callback, built once: with bios drawn from
	// the queue's pool, the steady-state issue loop allocates nothing.
	onDone func(*bio.Bio)
}

// SaturatorConfig configures a Saturator.
type SaturatorConfig struct {
	CG      *cgroup.Node
	Op      bio.Op
	Pattern Pattern
	Size    int64 // bytes per IO
	Depth   int   // requests kept in flight
	Region  int64 // device region base offset
	Span    int64 // device region length; 0 selects 16GiB
	Seed    uint64
}

// NewSaturator builds a saturator on q.
func NewSaturator(q *blk.Queue, cfg SaturatorConfig) *Saturator {
	if cfg.Size <= 0 {
		cfg.Size = 4096
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	if cfg.Span <= 0 {
		cfg.Span = 16 << 30
	}
	w := &Saturator{
		q: q, cg: cfg.CG, op: cfg.Op, pat: cfg.Pattern, sz: cfg.Size, dep: cfg.Depth,
		reg:   region{base: cfg.Region, size: cfg.Span, rnd: rng.Derive(cfg.Seed, 0x5a7)},
		Stats: newStats(),
	}
	w.onDone = func(b *bio.Bio) {
		w.Stats.observe(b)
		w.issue()
	}
	return w
}

// Start begins issuing.
func (w *Saturator) Start() {
	for i := 0; i < w.dep; i++ {
		w.issue()
	}
}

// Stop ceases issuing; in-flight requests drain naturally.
func (w *Saturator) Stop() { w.stopped = true }

func (w *Saturator) issue() {
	if w.stopped {
		return
	}
	b := w.q.BioPool().Get()
	b.Op = w.op
	b.Off = w.reg.offset(w.pat, w.sz)
	b.Size = w.sz
	b.CG = w.cg
	b.OnDone = w.onDone
	w.q.Submit(b)
}

// ThinkTime issues one request, waits Think after its completion, then
// issues the next — the high-priority workload of the work-conservation
// experiment (Figure 11).
type ThinkTime struct {
	q     *blk.Queue
	cg    *cgroup.Node
	op    bio.Op
	pat   Pattern
	sz    int64
	think sim.Time
	reg   region

	Stats   *Stats
	stopped bool
	// onDone/issueFn are built once so the issue → think → issue cycle
	// does not allocate closures.
	onDone  func(*bio.Bio)
	issueFn func()
}

// ThinkTimeConfig configures a ThinkTime workload.
type ThinkTimeConfig struct {
	CG      *cgroup.Node
	Op      bio.Op
	Pattern Pattern
	Size    int64
	Think   sim.Time
	Region  int64
	Span    int64
	Seed    uint64
}

// NewThinkTime builds a serial think-time workload.
func NewThinkTime(q *blk.Queue, cfg ThinkTimeConfig) *ThinkTime {
	if cfg.Size <= 0 {
		cfg.Size = 4096
	}
	if cfg.Span <= 0 {
		cfg.Span = 16 << 30
	}
	w := &ThinkTime{
		q: q, cg: cfg.CG, op: cfg.Op, pat: cfg.Pattern, sz: cfg.Size, think: cfg.Think,
		reg:   region{base: cfg.Region, size: cfg.Span, rnd: rng.Derive(cfg.Seed, 0x71417)},
		Stats: newStats(),
	}
	w.issueFn = w.issue
	w.onDone = func(b *bio.Bio) {
		w.Stats.observe(b)
		w.q.Engine().After(w.think, w.issueFn)
	}
	return w
}

// Start begins the issue loop.
func (w *ThinkTime) Start() { w.issue() }

// Stop ceases issuing.
func (w *ThinkTime) Stop() { w.stopped = true }

func (w *ThinkTime) issue() {
	if w.stopped {
		return
	}
	b := w.q.BioPool().Get()
	b.Op = w.op
	b.Off = w.reg.offset(w.pat, w.sz)
	b.Size = w.sz
	b.CG = w.cg
	b.OnDone = w.onDone
	w.q.Submit(b)
}

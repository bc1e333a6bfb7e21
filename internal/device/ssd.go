package device

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/rng"
	"github.com/iocost-sim/iocost/internal/sim"
)

// SSDSpec parameterizes a flash device model. Service time for a request is
//
//	base(op, sequential) + size/bandwidth(op)
//
// multiplied by log-normal noise, serviced across Parallelism internal
// channels. Writes are absorbed by a buffer of BufBytes that refills
// (drains to flash) at SustainedWBps; while the buffer has credit, writes
// complete at the fast buffered cost, and once it is exhausted they slow to
// the sustained cost and occasionally incur Pareto-tailed garbage-collection
// stalls. This reproduces the "over-exert in short bursts, then slow down
// drastically" behaviour of real SSDs (§2.1 of the paper).
type SSDSpec struct {
	Name string
	// Parallelism is the number of concurrent internal operations.
	Parallelism int

	// Base service times in nanoseconds for a 4KiB operation.
	RandReadNS  float64
	SeqReadNS   float64
	RandWriteNS float64 // buffered
	SeqWriteNS  float64 // buffered

	// Transfer bandwidth per channel in bytes/ns contributes the
	// size-proportional term.
	ReadBps  float64 // bytes per second
	WriteBps float64 // bytes per second (buffered)

	// Write buffer.
	BufBytes     int64   // burst absorption capacity; 0 disables the buffer model
	SustainedWBp float64 // sustained write bytes per second once buffer is full
	GCStallProb  float64 // per-write probability of a GC stall when buffer-limited
	GCStallNS    float64 // minimum stall; Pareto(alpha=1.5) tail above it

	// Noise is the sigma of the log-normal service-time multiplier.
	Noise float64

	// Merge enables elevator-style back-merging of contiguous
	// same-cgroup requests in the device queue (the block layer's
	// request merging). Off by default: the stock experiments model
	// direct IO, which does not merge.
	Merge bool
}

// SSD is a simulated flash device.
type SSD struct {
	engine
	spec SSDSpec
	rnd  *rng.Source
	seq  *seqTracker

	bufCredit  int64    // bytes of write-buffer credit remaining
	bufLastRef sim.Time // last time credit was refilled
	gcStalls   uint64   // lifetime GC-stall count

	// Fault injection: service times are multiplied by degrade until
	// degradeUntil (thermal throttling, background media scans, firmware
	// housekeeping — the unpredictable behaviours §5 complains about).
	degrade      float64
	degradeUntil sim.Time

	// det is set for specs whose service time is a pure function of
	// (op, size, sequential) — no noise, no buffer model — so the last
	// result can be memoized. Workloads issue runs of identically-shaped
	// requests, making a one-entry cache nearly always hit.
	det     bool
	svcOp   bio.Op
	svcSeq  bool
	svcSize int64
	svcNS   sim.Time
}

// NewSSD builds an SSD from spec, drawing randomness from seed.
func NewSSD(eng *sim.Engine, spec SSDSpec, seed uint64) *SSD {
	d := &SSD{
		spec:      spec,
		rnd:       rng.New(seed),
		seq:       newSeqTracker(),
		bufCredit: spec.BufBytes,
	}
	d.engine = engine{eng: eng, name: spec.Name, slots: spec.Parallelism,
		merge: spec.Merge, mergeLimit: 1 << 20}
	d.engine.service = d.serviceTime
	d.det = spec.Noise == 0 && spec.BufBytes == 0
	return d
}

// Spec returns the device parameters.
func (d *SSD) Spec() SSDSpec { return d.spec }

// InjectDegradation multiplies service times by factor for the given
// duration, modeling a thermal-throttle or housekeeping episode. Injecting
// again extends/replaces the current episode.
func (d *SSD) InjectDegradation(factor float64, dur sim.Time) {
	if factor < 1 {
		factor = 1
	}
	d.degrade = factor
	d.degradeUntil = d.eng.Now() + dur
}

// Degraded reports whether a degradation episode is in effect.
func (d *SSD) Degraded() bool {
	return d.degrade > 1 && d.eng.Now() < d.degradeUntil
}

func (d *SSD) refillBuffer() {
	if d.spec.BufBytes == 0 {
		return
	}
	now := d.eng.Now()
	dt := now - d.bufLastRef
	d.bufLastRef = now
	d.bufCredit += int64(float64(dt) / 1e9 * d.spec.SustainedWBp)
	if d.bufCredit > d.spec.BufBytes {
		d.bufCredit = d.spec.BufBytes
	}
}

// serviceTime computes a request's service duration. Small requests are
// IOPS-limited (the per-op base cost dominates); large requests are
// bandwidth-limited: with Parallelism channels sharing the device's
// aggregate bandwidth, a request's transfer term is size*P/Bps, so peak
// throughput converges to Bps regardless of request size.
func (d *SSD) serviceTime(b *bio.Bio) sim.Time {
	sequential := d.seq.sequential(b)
	if d.det && !d.Degraded() {
		if b.Size == d.svcSize && b.Op == d.svcOp && sequential == d.svcSeq {
			return d.svcNS
		}
		ns := d.serviceTimeSlow(b, sequential)
		d.svcOp, d.svcSeq, d.svcSize, d.svcNS = b.Op, sequential, b.Size, ns
		return ns
	}
	return d.serviceTimeSlow(b, sequential)
}

// serviceTimeSlow is the full service-time model; serviceTime memoizes it
// for deterministic specs.
func (d *SSD) serviceTimeSlow(b *bio.Bio, sequential bool) sim.Time {
	par := float64(d.spec.Parallelism)
	var ns float64
	if b.Op == bio.Read {
		base := d.spec.RandReadNS
		if sequential {
			base = d.spec.SeqReadNS
		}
		ns = maxf(base, float64(b.Size)*par/d.spec.ReadBps*1e9)
	} else {
		base := d.spec.RandWriteNS
		if sequential {
			base = d.spec.SeqWriteNS
		}
		bps := d.spec.WriteBps

		if d.spec.BufBytes > 0 {
			d.refillBuffer()
			if d.bufCredit >= b.Size {
				d.bufCredit -= b.Size
			} else {
				// Buffer exhausted: write proceeds at the sustained
				// drain rate and may hit a GC stall.
				d.bufCredit = 0
				bps = d.spec.SustainedWBp
				if d.spec.GCStallProb > 0 && d.rnd.Bool(d.spec.GCStallProb) {
					base += d.rnd.Pareto(d.spec.GCStallNS, 1.5)
					d.gcStalls++
				}
			}
		}
		ns = maxf(base, float64(b.Size)*par/bps*1e9)
	}
	if d.spec.Noise > 0 {
		ns *= d.rnd.LogNormal(0, d.spec.Noise)
	}
	if d.Degraded() {
		ns *= d.degrade
	}
	return sim.Time(ns)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// BufferCredit returns the remaining write-buffer credit in bytes (after
// refill accounting), mainly for tests and diagnostics.
func (d *SSD) BufferCredit() int64 {
	d.refillBuffer()
	return d.bufCredit
}

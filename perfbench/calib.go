package main

import (
	"math"
	"time"
)

// Host-speed calibration. The shared 2-vCPU hosts this benchmark runs on
// change speed by up to 2x over minutes, and identical runs with them. So
// every timed phase interleaves a fixed calibration kernel with the work,
// on the same goroutine, and reports its time scaled to a nominal host:
// the kernel's mean time during the phase over calibNominal is the host's
// slowdown, which divides the phase's time and multiplies its rate. The
// kernel's own time is excluded from the phase, and its samples from the
// CPU profile. README.md has the evidence that this steadies the figures.

// calibNominal is the kernel's time on the nominal host (about the
// median on the 2-vCPU Xeon KVM guest the bounds were set on).
const calibNominal = 500 * time.Microsecond

// calibKernelOps is the kernel's fixed work: logarithms, exponentials and
// square roots of xorshift draws, the floating-point mix of the device
// models' noise draws. Of the kernels tried it tracked the simulator's
// speed best (README.md).
const calibKernelOps = 15000

// calibSink keeps the kernel's result live.
var calibSink float64

// calibration accumulates kernel runs over one timed phase.
type calibration struct {
	total time.Duration
	n     int
}

// sample runs the kernel once.
func (c *calibration) sample() {
	t0 := time.Now()
	calibKernel()
	c.total += time.Since(t0)
	c.n++
}

func (c *calibration) add(o calibration) {
	c.total += o.total
	c.n += o.n
}

// slowdown is the host's mean kernel time over the nominal one.
func (c *calibration) slowdown() float64 {
	return c.total.Seconds() / float64(c.n) / calibNominal.Seconds()
}

// normSeconds is the wall time d spent around the kernel runs, without
// them, in nominal host seconds.
func (c *calibration) normSeconds(d time.Duration) float64 {
	return (d - c.total).Seconds() / c.slowdown()
}

func calibKernel() {
	x := uint64(88172645463325252)
	acc := 0.0
	for i := 0; i < calibKernelOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := float64(x>>11) / (1 << 53)
		acc += math.Log(u+1e-9) * math.Exp(-u) / math.Sqrt(u+1)
	}
	calibSink += acc
}

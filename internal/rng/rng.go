// Package rng provides a small, fast, deterministic pseudo-random number
// generator and the distributions the simulator needs.
//
// Every simulation entity that needs randomness derives its own Source from a
// scenario seed so that results are reproducible run-to-run and independent of
// the order in which other entities consume random numbers.
package rng

import "math"

// Source is a xoshiro256** generator seeded via splitmix64. The zero value is
// not valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams for practical simulation purposes.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed puts r in exactly the state New(seed) starts from, whatever r has
// drawn before: the in-place form of New for hot paths that recycle one
// Source across many seeded entities instead of allocating one each.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Split reseeds dst as a new independent stream derived from r. It
// consumes two values from r, so siblings derived in sequence differ.
func (r *Source) Split(dst *Source) {
	dst.Reseed(r.Uint64() ^ (r.Uint64() << 1))
}

// Derive returns the Source for one named component of a larger seeded
// entity (a workload's offset stream, a device's noise stream, ...). It is
// THE entry point for deriving component streams from a scenario seed:
// every component must obtain its randomness through Derive (or DeriveSeed
// when a raw seed has to cross an API boundary) with a tag that is unique
// within the scenario, so that a replay from the same scenario seed is
// bit-stable no matter what other components exist or in which order they
// start consuming random numbers.
//
// Tags are arbitrary constants; components of one scenario must use
// distinct tags or their streams collide. The in-place form, for a Source
// that is recycled rather than allocated, is r.Reseed(DeriveSeed(seed, tag)).
func Derive(seed, tag uint64) *Source {
	return New(DeriveSeed(seed, tag))
}

// DeriveSeed returns the derived seed Derive would construct its Source
// from, for call sites that must pass a plain uint64 seed down an API
// (device constructors, nested scenario configs).
func DeriveSeed(seed, tag uint64) uint64 {
	return seed ^ tag
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
func (r *Source) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *Source) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// SkipNormal advances r past one Normal (or LogNormal) draw without
// computing it: it consumes exactly the uniforms Normal would, the u1 == 0
// retry included, so the stream continues as if the value had been drawn.
// Callers whose draw would be discarded skip the Log, Sqrt and Cos (and a
// LogNormal's Exp) this way and stay on the same stream.
func (r *Source) SkipNormal() {
	for r.Float64() == 0 {
	}
	r.Uint64() // u2: a Float64 is exactly one Uint64
}

// Pareto returns a Pareto(alpha) distributed value with minimum xm. Heavy
// tails (small alpha) model SSD garbage-collection stalls well.
func (r *Source) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	return r.Float64() < p
}

// Package pidctl implements the small PID controller used to ramp
// ResourceControlBench load in the overcommit experiment (Figure 15).
package pidctl

// PID is a proportional-integral-derivative controller with output clamping
// and integral anti-windup. Construct with New.
type PID struct {
	kp, ki, kd float64
	setpoint   float64
	outMin     float64
	outMax     float64

	integral float64
	prevErr  float64
	primed   bool
}

// New returns a PID controller steering toward setpoint with output clamped
// to [outMin, outMax].
func New(kp, ki, kd, setpoint, outMin, outMax float64) *PID {
	if outMin > outMax {
		panic("pidctl: outMin > outMax")
	}
	return &PID{kp: kp, ki: ki, kd: kd, setpoint: setpoint, outMin: outMin, outMax: outMax}
}

// Update feeds a measurement taken dt seconds after the previous one and
// returns the new control output.
func (p *PID) Update(measured, dt float64) float64 {
	if dt <= 0 {
		dt = 1e-9
	}
	err := p.setpoint - measured
	var deriv float64
	if p.primed {
		deriv = (err - p.prevErr) / dt
	}
	p.prevErr = err
	p.primed = true

	p.integral += err * dt
	out := p.kp*err + p.ki*p.integral + p.kd*deriv
	// Anti-windup: clamp the output and bleed the integral when pinned.
	if out > p.outMax {
		if p.ki != 0 {
			p.integral -= (out - p.outMax) / p.ki
		}
		out = p.outMax
	} else if out < p.outMin {
		if p.ki != 0 {
			p.integral += (p.outMin - out) / p.ki
		}
		out = p.outMin
	}
	return out
}

// Reset clears controller state.
func (p *PID) Reset() {
	p.integral, p.prevErr, p.primed = 0, 0, false
}

package registry

import (
	"fmt"
	"io"
	"strconv"
)

// Encoder writes the OpenMetrics text format, the only code that does.
// Each line is one Write. The first write error sticks: later calls write
// nothing and Close returns it, so callers check once, not per line.
type Encoder struct {
	w   io.Writer
	err error
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Family writes `# HELP` (left out when help is empty) and `# TYPE`.
func (e *Encoder) Family(name, help string, kind Kind) {
	if help != "" {
		e.printf("# HELP %s %s\n", name, help)
	}
	e.printf("# TYPE %s %s\n", name, kind)
}

// Sample writes one sample line; labels is rendered (RenderLabels). Values
// take their shortest round-trip form, so equal values give equal bytes.
func (e *Encoder) Sample(name, labels string, v float64) {
	e.printf("%s%s %s\n", name, labels, formatFloat(v))
}

// SampleAt writes one sample line with a timestamp in seconds.
func (e *Encoder) SampleAt(name, labels string, v, ts float64) {
	e.printf("%s%s %s %s\n", name, labels, formatFloat(v), formatFloat(ts))
}

// Close writes `# EOF` and returns the first write error.
func (e *Encoder) Close() error {
	e.printf("# EOF\n")
	return e.err
}

func (e *Encoder) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteOpenMetrics gathers r and writes it as one OpenMetrics scrape:
// families in registration order, samples in emission order.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	enc := NewEncoder(w)
	for _, fam := range r.Gather() {
		enc.Family(fam.Name, fam.Help, fam.Kind)
		for _, s := range fam.Samples {
			enc.Sample(s.Name, s.Labels, s.Value)
		}
	}
	return enc.Close()
}

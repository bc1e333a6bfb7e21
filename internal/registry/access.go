package registry

// Typed, allocation-free read access to a registry: gauge/counter lookup by
// family name + exact label match, summary-quantile and summary-count
// lookup, and whole-family sums. These exist so
// in-process consumers — above all the QoS auto-tuner (internal/tune) —
// read metrics as numbers instead of scraping the OpenMetrics text they
// would then have to parse back.
//
// A lookup evaluates exactly one family's collector with a pre-built
// filtering emit closure held on the Registry, so the accessor machinery
// itself allocates nothing per call (pinned by TestAccessorsAllocFree).
// Collectors with dynamic series sets may still allocate internally — the
// per-cgroup io.stat collector sorts its rows, for example — which is their
// cost, not the accessor's.
//
// The Registry is single-goroutine like the simulation it instruments, so
// one scratch filter per registry is safe. Fan-out code (internal/fanout)
// gives every cell its own machine and therefore its own registry.

// filter is the reusable lookup state behind the accessor methods.
type filter struct {
	// inputs: the sample name must be name+suffix (matched without
	// concatenating, which would allocate per lookup).
	name   string
	suffix string
	labels []Label // labels that must match exactly (prefix for quantiles)
	qlabel string  // non-empty: expect one extra trailing quantile label
	// outputs
	value float64
	found bool
}

// nameMatch reports whether a sample name equals name+suffix.
func (f *filter) nameMatch(sample string) bool {
	n := len(f.name)
	return len(sample) == n+len(f.suffix) && sample[:n] == f.name && sample[n:] == f.suffix
}

// match reports whether a sample's labels satisfy the filter.
func (f *filter) match(labels []Label) bool {
	want := len(f.labels)
	if f.qlabel != "" {
		want++
	}
	if len(labels) != want {
		return false
	}
	for i, l := range f.labels {
		if labels[i] != l {
			return false
		}
	}
	if f.qlabel != "" {
		last := labels[len(labels)-1]
		if last.Key != "quantile" || last.Value != f.qlabel {
			return false
		}
	}
	return true
}

// emitFn is the shared filtering Emit; it is built once in New so lookups
// allocate no closures.
func (r *Registry) emitFn(name string, labels []Label, v float64) {
	f := &r.scratch
	if f.found || !f.nameMatch(name) || !f.match(labels) {
		return
	}
	f.value = v
	f.found = true
}

// lookup evaluates family's collector and returns the first sample whose
// name (family+suffix) and labels match. kind, when non-negative, restricts
// the family kind.
func (r *Registry) lookup(family, suffix string, kind int, labels []Label, qlabel string) (float64, bool) {
	fam := r.byName[family]
	if fam == nil {
		return 0, false
	}
	if kind >= 0 && fam.Kind != Kind(kind) {
		return 0, false
	}
	r.scratch = filter{name: family, suffix: suffix, labels: labels, qlabel: qlabel}
	fam.collect(r.filterEmit)
	return r.scratch.value, r.scratch.found
}

// Has reports whether a family is registered.
func (r *Registry) Has(family string) bool { return r.byName[family] != nil }

// GaugeValue returns the gauge family's sample matching labels exactly
// (nil matches the unlabeled series). False if the family is missing, is
// not a gauge, or has no matching series.
func (r *Registry) GaugeValue(family string, labels []Label) (float64, bool) {
	return r.lookup(family, "", int(Gauge), labels, "")
}

// CounterValue returns the counter family's sample matching labels exactly.
func (r *Registry) CounterValue(family string, labels []Label) (float64, bool) {
	return r.lookup(family, "", int(Counter), labels, "")
}

// Value returns the sample matching labels from a family of any kind.
func (r *Registry) Value(family string, labels []Label) (float64, bool) {
	return r.lookup(family, "", -1, labels, "")
}

// SummaryQuantile returns a summary family's quantile-q series matching
// labels. q must be one of the exported quantiles (0.5, 0.9, 0.99).
func (r *Registry) SummaryQuantile(family string, q float64, labels []Label) (float64, bool) {
	for _, sq := range summaryQuantiles {
		if sq.q == q {
			return r.lookup(family, "", int(Summary), labels, sq.label)
		}
	}
	return 0, false
}

// SummaryCount returns a summary family's observation count for the series
// matching labels.
func (r *Registry) SummaryCount(family string, labels []Label) (float64, bool) {
	return r.lookup(family, "_count", int(Summary), labels, "")
}

// sumEmit accumulates every plain sample of the target family (skipping
// summary _count/_sum series would double-count; Sum is therefore defined
// only over samples named exactly like the family).
func (r *Registry) sumEmit(name string, _ []Label, v float64) {
	f := &r.scratch
	if name != f.name {
		return
	}
	f.value += v
	f.found = true
}

// Sum returns the sum over every series of the family (e.g. a per-device
// counter summed across devices). For summaries it sums the exported
// quantile samples, which is rarely meaningful — use it on gauges and
// counters. False if the family is missing or emitted nothing.
func (r *Registry) Sum(family string) (float64, bool) {
	fam := r.byName[family]
	if fam == nil {
		return 0, false
	}
	r.scratch = filter{name: family}
	fam.collect(r.sumFilterEmit)
	return r.scratch.value, r.scratch.found
}

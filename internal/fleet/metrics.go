package fleet

import (
	"encoding/json"
	"io"
	"strconv"

	"github.com/iocost-sim/iocost/internal/registry"
	"github.com/iocost-sim/iocost/internal/sim"
)

// RegisterMetrics contributes the fleet-wide roll-ups to a registry: the
// same counter/gauge/summary surface every per-host layer uses, but
// aggregated over the whole cluster. Per-tick families emit one series per
// tick (label tick="N", in tick order), so the export stays bounded by the
// tick count, never the host count.
func (s *Summary) RegisterMetrics(r *registry.Registry) {
	r.GaugeFunc("fleet_hosts", "hosts simulated", registry.L("kind", s.Kind.String()),
		func() float64 { return float64(s.Hosts) })
	r.GaugeFunc("fleet_racks", "racks simulated", registry.L("kind", s.Kind.String()),
		func() float64 { return float64(s.Racks) })
	r.GaugeFunc("fleet_shards", "shards merged", registry.L("kind", s.Kind.String()),
		func() float64 { return float64(s.Shards) })

	tickLabel := func(t int) []registry.Label {
		return registry.L("kind", s.Kind.String(), "tick", strconv.Itoa(t))
	}
	perTick := func(name, help string, get func(TickStats) float64) {
		r.Collector(name, registry.Counter, help, func(emit func([]registry.Label, float64)) {
			for t, ts := range s.PerTick {
				emit(tickLabel(t), get(ts))
			}
		})
	}
	perTick("fleet_ops_total", "system-slice operations per tick",
		func(ts TickStats) float64 { return float64(ts.Ops) })
	perTick("fleet_failures_total", "operation deadline misses per tick",
		func(ts TickStats) float64 { return float64(ts.Fails) })
	perTick("fleet_storm_failures_total", "failures caused by fault storms per tick",
		func(ts TickStats) float64 { return float64(ts.StormFails) })

	perTickGauge := func(name, help string, get func(TickStats) float64) {
		r.Collector(name, registry.Gauge, help, func(emit func([]registry.Label, float64)) {
			for t, ts := range s.PerTick {
				emit(tickLabel(t), get(ts))
			}
		})
	}
	perTickGauge("fleet_migrated_hosts", "hosts on the new controller per tick",
		func(ts TickStats) float64 { return float64(ts.Migrated) })
	perTickGauge("fleet_pushed_hosts", "hosts on the pushed config per tick",
		func(ts TickStats) float64 { return float64(ts.Pushed) })
	perTickGauge("fleet_storm_hosts", "hosts under an active fault storm per tick",
		func(ts TickStats) float64 { return float64(ts.StormHosts) })

	r.Histogram("fleet_op_latency_ns", "effective operation latency across the fleet",
		registry.L("kind", s.Kind.String()), s.Latency)

	// Fidelity families exist only when full machines ran, keeping
	// outcome-only exports byte-identical to their historical goldens.
	if c := s.Calib; c != nil {
		r.GaugeFunc("fleet_fidelity_full_hosts", "hosts running full machines",
			registry.L("kind", s.Kind.String()), func() float64 { return float64(c.FullHosts) })
		calibTick := func(name, help string, get func(CalibTick) float64) {
			r.Collector(name, registry.Gauge, help, func(emit func([]registry.Label, float64)) {
				for t, ct := range c.PerTick {
					emit(tickLabel(t), get(ct))
				}
			})
		}
		calibTick("fleet_calib_full_p99_ns", "full-machine effective op latency p99 per tick",
			func(ct CalibTick) float64 { return float64(ct.Full.Quantile(0.99)) })
		calibTick("fleet_calib_full_ops", "full-machine ops observed per tick",
			func(ct CalibTick) float64 { return float64(ct.Full.Count()) })
		calibTick("fleet_calib_outcome_p99_ns", "outcome-model effective op latency p99 per tick",
			func(ct CalibTick) float64 { return float64(ct.Outcome.Quantile(0.99)) })
		calibTick("fleet_calib_outcome_ops", "outcome-model ops observed per tick",
			func(ct CalibTick) float64 { return float64(ct.Outcome.Count()) })
		r.Histogram("fleet_calib_protected_latency_ns",
			"full-machine protected workload read latency",
			registry.L("kind", s.Kind.String()), c.Protected)
		r.Histogram("fleet_calib_best_effort_latency_ns",
			"full-machine best-effort workload read latency",
			registry.L("kind", s.Kind.String()), c.BestEffort)
	}

	// Flight families exist only when recorders were sampled, keeping
	// unsampled exports byte-identical to their historical goldens.
	if s.FlightSampled > 0 {
		r.GaugeFunc("fleet_flight_sampled_hosts", "hosts carrying sampled flight recorders",
			registry.L("kind", s.Kind.String()), func() float64 { return float64(s.FlightSampled) })
		r.GaugeFunc("fleet_flight_incidents", "retained flight incidents",
			registry.L("kind", s.Kind.String()), func() float64 { return float64(len(s.FlightIncidents)) })
		r.GaugeFunc("fleet_flight_dropped", "flight incidents dropped by the retention bound",
			registry.L("kind", s.Kind.String()), func() float64 { return float64(s.FlightDropped) })
	}
}

// WriteOpenMetrics renders the fleet roll-ups as one deterministic
// OpenMetrics scrape: identical summaries produce identical bytes.
func (s *Summary) WriteOpenMetrics(w io.Writer) error {
	r := registry.New()
	s.RegisterMetrics(r)
	return r.WriteOpenMetrics(w)
}

// JSONSummaryVersion identifies the fleet JSON export schema.
const JSONSummaryVersion = 1

// JSONSummary is the structured export of a cluster run.
type JSONSummary struct {
	Version   int         `json:"version"`
	Kind      string      `json:"kind"`
	Hosts     int         `json:"hosts"`
	Racks     int         `json:"racks"`
	Shards    int         `json:"shards"`
	Ticks     int         `json:"ticks"`
	TickSec   float64     `json:"tick_sec"`
	PerTick   []TickStats `json:"per_tick"`
	LatP50NS  int64       `json:"lat_p50_ns"`
	LatP90NS  int64       `json:"lat_p90_ns"`
	LatP99NS  int64       `json:"lat_p99_ns"`
	LatMaxNS  int64       `json:"lat_max_ns"`
	LatCount  uint64      `json:"lat_count"`
	Reduction float64     `json:"reduction"`
	// Flight appears only when recorders were sampled (omitted otherwise,
	// preserving historical export bytes).
	Flight *FlightExport `json:"flight,omitempty"`
	// Fidelity appears only when full machines ran (omitted otherwise,
	// preserving historical export bytes).
	Fidelity *FidelityExport `json:"fidelity,omitempty"`
}

// FlightExport is the sampled-recorder section of the JSON export.
type FlightExport struct {
	Sampled   int             `json:"sampled"`
	Dropped   int             `json:"dropped"`
	Incidents []FleetIncident `json:"incidents"`
}

// FidelityExport is the cross-calibration section of the JSON export.
type FidelityExport struct {
	FullHosts int               `json:"full_hosts"`
	PerTick   []CalibTickExport `json:"per_tick"`
	// ProtectedP99NS and BestEffortP99NS are the full machines' pooled
	// per-workload read p99s — the ordering the controllers exist to
	// enforce.
	ProtectedP99NS  int64 `json:"protected_p99_ns"`
	BestEffortP99NS int64 `json:"best_effort_p99_ns"`
}

// CalibTickExport is one tick's full-vs-outcome comparison.
type CalibTickExport struct {
	FullP99NS    int64  `json:"full_p99_ns"`
	FullOps      uint64 `json:"full_ops"`
	OutcomeP99NS int64  `json:"outcome_p99_ns"`
	OutcomeOps   uint64 `json:"outcome_ops"`
}

// Export returns the structured form of the summary.
func (s *Summary) Export() JSONSummary {
	return JSONSummary{
		Version:   JSONSummaryVersion,
		Kind:      s.Kind.String(),
		Hosts:     s.Hosts,
		Racks:     s.Racks,
		Shards:    s.Shards,
		Ticks:     s.Ticks,
		TickSec:   float64(s.TickDur) / float64(sim.Second),
		PerTick:   s.PerTick,
		LatP50NS:  s.Latency.Quantile(0.5),
		LatP90NS:  s.Latency.Quantile(0.9),
		LatP99NS:  s.Latency.Quantile(0.99),
		LatMaxNS:  s.Latency.Max(),
		LatCount:  s.Latency.Count(),
		Reduction: s.Reduction(),
		Flight:    s.flightExport(),
		Fidelity:  s.fidelityExport(),
	}
}

func (s *Summary) fidelityExport() *FidelityExport {
	c := s.Calib
	if c == nil {
		return nil
	}
	e := &FidelityExport{
		FullHosts:       c.FullHosts,
		PerTick:         make([]CalibTickExport, len(c.PerTick)),
		ProtectedP99NS:  c.Protected.Quantile(0.99),
		BestEffortP99NS: c.BestEffort.Quantile(0.99),
	}
	for t, ct := range c.PerTick {
		e.PerTick[t] = CalibTickExport{
			FullP99NS: ct.Full.Quantile(0.99), FullOps: ct.Full.Count(),
			OutcomeP99NS: ct.Outcome.Quantile(0.99), OutcomeOps: ct.Outcome.Count(),
		}
	}
	return e
}

func (s *Summary) flightExport() *FlightExport {
	if s.FlightSampled == 0 {
		return nil
	}
	return &FlightExport{
		Sampled:   s.FlightSampled,
		Dropped:   s.FlightDropped,
		Incidents: s.FlightIncidents,
	}
}

// WriteJSON writes the indented JSON export.
func (s *Summary) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s.Export(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

package core

import "github.com/iocost-sim/iocost/internal/registry"

// RegisterMetrics contributes the IOCost controller's state to a metrics
// registry: the global vrate and planning-period summary, lifetime issue/
// wait/debt counters, and a per-cgroup collector over the same state
// Snapshot reports (budget, debt, waiters, hierarchical weight, lifetime
// cost.usage/wait/indebt). Per-cgroup emission reuses Snapshot, which
// sorts by path — deterministic output, evaluated only at scrape time.
func (c *Controller) RegisterMetrics(r *registry.Registry) {
	r.GaugeFunc("iocost_vrate", "virtual time rate (1 = wall speed)", nil,
		func() float64 { return c.vrate })
	r.GaugeFunc("iocost_period_seconds", "planning period length", nil,
		func() float64 { return c.period.Seconds() })
	r.CounterFunc("iocost_periods_total", "planning periods completed", nil,
		func() float64 { return float64(c.periodSeq) })
	r.GaugeFunc("iocost_saturated", "1 if the last period saw device saturation", nil,
		func() float64 {
			if c.lastPeriod.Saturated {
				return 1
			}
			return 0
		})
	r.GaugeFunc("iocost_missed_read_pct", "reads slower than RLat in the last period, percent", nil,
		func() float64 { return c.lastPeriod.MissedRPct })
	r.GaugeFunc("iocost_missed_write_pct", "writes slower than WLat in the last period, percent", nil,
		func() float64 { return c.lastPeriod.MissedWPct })
	r.GaugeFunc("iocost_active_cgroups", "cgroups active at the last period tick", nil,
		func() float64 { return float64(c.lastPeriod.ActiveCGs) })
	r.GaugeFunc("iocost_donors", "cgroups donating budget after the last donation pass", nil,
		func() float64 { return float64(c.lastPeriod.Donors) })
	r.CounterFunc("iocost_issued_total", "bios issued", nil,
		func() float64 { return float64(c.totalIssued) })
	r.CounterFunc("iocost_waited_total", "bios that waited for budget", nil,
		func() float64 { return float64(c.totalWaited) })
	r.CounterFunc("iocost_debt_incurred_ns_total", "absolute debt incurred, occupancy-ns", nil,
		func() float64 { return c.totalDebtAbs })

	perCG := func(name, help string, kind registry.Kind, field func(CGStat) float64) {
		r.Collector(name, kind, help, func(emit func([]registry.Label, float64)) {
			for _, s := range c.Snapshot() {
				emit(registry.L("cgroup", s.Path), field(s))
			}
		})
	}
	perCG("iocost_cg_budget_ns", "vtime budget (positive: can issue immediately)", registry.Gauge,
		func(s CGStat) float64 { return s.BudgetNS })
	perCG("iocost_cg_debt_ns", "outstanding absolute debt", registry.Gauge,
		func(s CGStat) float64 { return s.DebtNS })
	perCG("iocost_cg_waiters", "bios queued for budget", registry.Gauge,
		func(s CGStat) float64 { return float64(s.Waiters) })
	perCG("iocost_cg_hweight_inuse", "hierarchical share in effect on the issue path", registry.Gauge,
		func(s CGStat) float64 { return s.HweightInuse })
	perCG("iocost_cg_usage_ns_total", "lifetime absolute cost charged (cost.usage)", registry.Counter,
		func(s CGStat) float64 { return s.CostUsageNS })
	perCG("iocost_cg_wait_ns_total", "lifetime budget-wait time (cost.wait)", registry.Counter,
		func(s CGStat) float64 { return float64(s.CostWaitNS) })
	perCG("iocost_cg_indebt_ns_total", "lifetime time spent indebted (cost.indebt)", registry.Counter,
		func(s CGStat) float64 { return float64(s.CostIndebtNS) })
}

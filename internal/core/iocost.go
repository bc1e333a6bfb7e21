package core

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/sim"
)

// Config parameterizes the IOCost controller. Model is required; zero
// values elsewhere select defaults. The Enable* knobs exist for the
// ablation experiments; production configuration is everything enabled.
type Config struct {
	// Model is the device cost model (required).
	Model Model
	// QoS regulates device loading; zero value selects DefaultQoS.
	QoS QoS
	// Period is the planning period; 0 derives it from the QoS latency
	// targets.
	Period sim.Time

	// DisableDonation turns off work-conserving budget donation (§3.6).
	DisableDonation bool
	// DisableDebt makes swap/meta IO wait for budget like normal IO,
	// recreating the priority inversion of §3.5.
	DisableDebt bool
	// DebtChargeRoot charges swap/meta IO to the root cgroup instead of
	// the memory owner — the "never throttled" misconfiguration of §4.5.
	DebtChargeRoot bool
	// DisableVrateAdj freezes vrate at 1.0 regardless of QoS signals.
	DisableVrateAdj bool

	// OnPeriod, if set, receives planning-path statistics every period.
	OnPeriod func(PeriodStats)
}

// PeriodStats is a snapshot of the planning path's view at the end of one
// period, for monitoring and the experiment harnesses.
type PeriodStats struct {
	Now         sim.Time
	Vrate       float64
	Saturated   bool
	Shortage    bool
	MissedRPct  float64 // % of reads slower than RLat this period
	MissedWPct  float64
	DepletionNS sim.Time
	ActiveCGs   int
	Donors      int
}

// Margins of the planning period that bound per-cgroup budget accumulation,
// mirroring the kernel's MARGIN_{MIN,TARGET}_PCT.
const (
	marginMinPct    = 0.10 // overdraft allowed on the issue path
	marginTargetPct = 0.50 // budget an idle-but-active cgroup may bank
)

// Vrate adjustment steps per period.
const (
	vrateStepUp       = 1.025
	vrateStepDown     = 0.95
	vrateStepDownHard = 0.85
)

// debtStallThreshold is the absolute debt (occupancy-ns) beyond which the
// owning task is stalled before returning to userspace.
const debtStallThreshold = 8 * float64(sim.Millisecond)

// DebugSlowWaiter, when non-nil, is invoked from the planning tick for any
// cgroup whose oldest waiter has been queued longer than the threshold.
var DebugSlowWaiter func(cg *cgroup.Node, age sim.Time, waiters int, budget, rel, hw, vrate, debt float64)

// CtlEventKind identifies a controller-level telemetry event delivered to
// an EventSink.
type CtlEventKind uint8

const (
	// CtlVrateChange fires whenever vrate is re-based to a new value;
	// value is the new vrate.
	CtlVrateChange CtlEventKind = iota + 1
	// CtlDonation fires after a donation pass that found donors; value is
	// the donor count.
	CtlDonation
	// CtlDebtIncur fires when forced (swap/meta) IO puts a cgroup into
	// debt; cg is the charged cgroup and value its outstanding debt in
	// occupancy-ns.
	CtlDebtIncur
	// CtlPeriodTick fires at the end of every planning period; value is
	// the vrate in force for the next period.
	CtlPeriodTick
)

// EventSink receives controller-level telemetry events. The telemetry
// recorder (internal/trace) implements it; production paths leave the sink
// nil and pay one nil check per event site.
type EventSink interface {
	ControllerEvent(at sim.Time, kind CtlEventKind, cg *cgroup.Node, value float64)
}

// Controller is the IOCost IO controller. It implements blk.Controller.
type Controller struct {
	cfg    Config
	q      *blk.Queue
	model  Model
	qos    QoS
	period sim.Time

	// Global vtime progresses at vrate relative to wall time:
	// gvtime(t) = vbase + (t - tbase) * vrate.
	vrate float64
	vbase float64
	tbase sim.Time

	// state holds per-cgroup controller state indexed by cgroup ID, so
	// the per-bio lookup is an array index instead of a map hash. Nodes
	// from a foreign hierarchy whose ID collides with a resident entry
	// live in the stateX side map.
	state  []*iocg
	stateX map[*cgroup.Node]*iocg
	// order holds per-cgroup states in creation order: the planning path
	// walks it (periodTick upkeep, donor identification) so waiter kicks,
	// deactivations and floating-point donor sums are deterministic
	// instead of following map iteration order.
	order     []*iocg
	periodSeq uint64
	ticker    *sim.Ticker
	// modelGen invalidates per-iocg cached costs when the model is
	// swapped online (SetModel).
	modelGen uint32

	// Per-period QoS accounting, indexed by bio.Op.
	latMet    [2]uint64
	latMissed [2]uint64
	shortage  bool

	// Donation bookkeeping: nodes whose inuse we lowered last pass, and
	// the pass's per-node d/d' sums and donor-tree roots (scratch reused
	// every period).
	donated    []*cgroup.Node
	donorNodes map[*cgroup.Node]donorInfo
	donorRoots []*cgroup.Node

	// Lifetime counters.
	totalIssued  uint64
	totalWaited  uint64
	totalDebtAbs float64

	// sink, when non-nil, receives controller-level telemetry events.
	sink EventSink

	// lastPeriod is the most recent planning-path summary, kept for the
	// metrics registry (RegisterMetrics) independently of the
	// Config.OnPeriod callback.
	lastPeriod PeriodStats
}

// iocg is the per-cgroup controller state.
type iocg struct {
	cg      *cgroup.Node
	vtime   float64
	lastEnd int64 // for sequential detection
	debt    float64
	waiters bio.List // each bio's Charge is its absolute cost
	kick    sim.EventID
	kickAt  sim.Time // 0 when no kick scheduled
	// kickFn is the persistent wake-up closure; built once at state
	// creation so scheduling a kick allocates nothing.
	kickFn func()

	// One-entry cost-model cache. Workloads overwhelmingly issue runs of
	// same-shaped bios (fixed block size, one direction, steady
	// random/sequential pattern), so remembering the last (op, size, seq)
	// → cost mapping short-circuits the model arithmetic on the hot
	// path. costGen ties the entry to the controller's modelGen;
	// SetModel bumps that to invalidate every cache at once.
	costOp   bio.Op
	costSeq  bool
	costSize int64
	costAbs  float64
	costGen  uint32

	lastIOPeriod uint64
	usage        float64 // absolute cost issued this period
	hadWait      bool

	// Lifetime io.stat-style counters (see monitor.go).
	lifetimeUsage float64  // total absolute cost charged
	waitNS        sim.Time // total time bios spent queued for budget
	indebtNS      sim.Time // total time spent with outstanding debt
	debtSince     sim.Time // start of the current debt episode
	debtEndAt     sim.Time // end of the last debt episode (0 = never indebted)
	waitEndAt     sim.Time // last time the wait queue drained (0 = never waited)
	inDebt        bool
}

// noteDebt maintains the indebt time accounting across debt transitions.
func (st *iocg) noteDebt(now sim.Time) {
	if st.debt > 0 && !st.inDebt {
		st.inDebt = true
		st.debtSince = now
	} else if st.debt == 0 && st.inDebt {
		st.inDebt = false
		st.indebtNS += now - st.debtSince
		st.debtEndAt = now
	}
}

// New builds an IOCost controller from cfg. It panics on invalid
// configuration; configurations come from code, not user input.
func New(cfg Config) *Controller {
	if cfg.Model == nil {
		panic("core: Config.Model is required")
	}
	if cfg.QoS == (QoS{}) {
		cfg.QoS = DefaultQoS()
	}
	if err := cfg.QoS.Validate(); err != nil {
		panic(err)
	}
	period := cfg.Period
	if period == 0 {
		// A small multiple of the latency target keeps enough IOs per
		// period for statistics while allowing granular control.
		period = 5 * cfg.QoS.maxLat()
		if period < 5*sim.Millisecond {
			period = 5 * sim.Millisecond
		}
		if period > 100*sim.Millisecond {
			period = 100 * sim.Millisecond
		}
	}
	return &Controller{
		cfg:      cfg,
		model:    cfg.Model,
		qos:      cfg.QoS,
		period:   period,
		vrate:    1.0,
		modelGen: 1, // nonzero so zero-valued iocg caches never hit
	}
}

// Name implements blk.Controller.
func (c *Controller) Name() string { return "iocost" }

// Attach implements blk.Controller.
func (c *Controller) Attach(q *blk.Queue) {
	c.q = q
	c.tbase = q.Now()
	c.ticker = q.Engine().NewTicker(c.period, c.periodTick)
}

// Vrate returns the current virtual time rate (1.0 = wall speed).
func (c *Controller) Vrate() float64 { return c.vrate }

// Period returns the planning period.
func (c *Controller) Period() sim.Time { return c.period }

// SetModel replaces the cost model online (Figure 13). Cached per-cgroup
// costs are invalidated.
func (c *Controller) SetModel(m Model) {
	c.model = m
	c.modelGen++
}

// SetQoS replaces the QoS parameters online.
func (c *Controller) SetQoS(q QoS) {
	if err := q.Validate(); err != nil {
		panic(err)
	}
	c.qos = q
	c.clampVrate()
}

// gvtime returns the global vtime at now.
func (c *Controller) gvtime(now sim.Time) float64 {
	return c.vbase + float64(now-c.tbase)*c.vrate
}

// SetEventSink installs s as the controller's telemetry sink (nil removes
// it). The sink sees vrate changes, donation passes, debt incursion and
// period ticks — the controller-side events a trace needs to explain why
// bios waited.
func (c *Controller) SetEventSink(s EventSink) { c.sink = s }

// setVrate re-bases the global vtime and applies a new rate.
func (c *Controller) setVrate(now sim.Time, vrate float64) {
	changed := vrate != c.vrate
	c.vbase = c.gvtime(now)
	c.tbase = now
	c.vrate = vrate
	if changed && c.sink != nil {
		c.sink.ControllerEvent(now, CtlVrateChange, nil, vrate)
	}
}

func (c *Controller) clampVrate() {
	if c.vrate < c.qos.VrateMin {
		c.setVrate(c.q.Now(), c.qos.VrateMin)
	} else if c.vrate > c.qos.VrateMax {
		c.setVrate(c.q.Now(), c.qos.VrateMax)
	}
}

// periodVns returns one period's worth of global vtime at the current rate.
func (c *Controller) periodVns() float64 {
	return float64(c.period) * c.vrate
}

func (c *Controller) stateFor(cg *cgroup.Node) *iocg {
	id := cg.ID()
	if id < len(c.state) {
		if st := c.state[id]; st != nil {
			if st.cg == cg {
				return st
			}
			return c.stateForeign(cg)
		}
	} else {
		grown := make([]*iocg, id+1)
		copy(grown, c.state)
		c.state = grown
	}
	st := c.newState(cg)
	c.state[id] = st
	return st
}

// stateForeign serves cgroup-ID collisions between hierarchies from a side
// map, keeping multi-hierarchy topologies correct.
func (c *Controller) stateForeign(cg *cgroup.Node) *iocg {
	st := c.stateX[cg]
	if st == nil {
		if c.stateX == nil {
			c.stateX = make(map[*cgroup.Node]*iocg)
		}
		st = c.newState(cg)
		c.stateX[cg] = st
	}
	return st
}

func (c *Controller) newState(cg *cgroup.Node) *iocg {
	st := &iocg{cg: cg, vtime: c.gvtime(c.q.Now())}
	st.kickFn = func() {
		st.kickAt = 0
		c.kickWaiters(st)
	}
	c.order = append(c.order, st)
	return st
}

// lookup returns cg's state or nil without creating one.
func (c *Controller) lookup(cg *cgroup.Node) *iocg {
	if id := cg.ID(); id < len(c.state) {
		if st := c.state[id]; st != nil && st.cg == cg {
			return st
		}
	}
	return c.stateX[cg]
}

// costOf returns the model cost of (op, size, seq) through st's one-entry
// cache.
func (c *Controller) costOf(st *iocg, op bio.Op, size int64, seq bool) float64 {
	if st.costGen == c.modelGen && st.costOp == op && st.costSeq == seq && st.costSize == size {
		return st.costAbs
	}
	abs := c.model.Cost(op, size, seq)
	st.costOp, st.costSeq, st.costSize = op, seq, size
	st.costAbs, st.costGen = abs, c.modelGen
	return abs
}

// payDebt pays down st's absolute debt from accumulated budget.
func (c *Controller) payDebt(st *iocg, gV float64) {
	if st.debt <= 0 {
		return
	}
	budget := gV - st.vtime
	if budget <= 0 {
		return
	}
	hw := st.cg.HweightInuse()
	payAbs := st.debt
	if max := budget * hw; payAbs > max {
		payAbs = max
	}
	st.vtime += payAbs / hw
	st.debt -= payAbs
	st.noteDebt(c.q.Now())
}

// clampBudget prevents an idle-but-active cgroup from banking more than the
// target margin of budget.
func (c *Controller) clampBudget(st *iocg, gV float64) {
	if floor := gV - marginTargetPct*c.periodVns(); st.vtime < floor {
		st.vtime = floor
	}
}

// Submit implements blk.Controller — the issue path (§3.1.1).
func (c *Controller) Submit(b *bio.Bio) {
	now := c.q.Now()
	gV := c.gvtime(now)

	cg := b.CG
	if cg == nil {
		c.q.Issue(b)
		return
	}
	st := c.stateFor(cg)
	if st.lastIOPeriod+1 < c.periodSeq || st.lastIOPeriod == 0 {
		// Returning from idle: budget was clamped while inactive.
		c.clampBudget(st, gV)
	}
	st.lastIOPeriod = c.periodSeq

	seq := st.lastEnd == b.Off && b.Off != 0
	st.lastEnd = b.End()
	abs := c.costOf(st, b.Op, b.Size, seq)

	forced := b.Flags.Has(bio.Swap) || b.Flags.Has(bio.Meta)
	if forced && !c.cfg.DisableDebt {
		c.submitForced(b, st, abs, gV)
		return
	}

	c.payDebt(st, gV)
	if !st.waiters.Empty() || st.debt > 0 {
		c.enqueue(st, b, abs)
		return
	}

	hw := cg.HweightInuse()
	rel := abs / hw
	if st.vtime+rel <= gV+marginMinPct*c.periodVns() {
		st.vtime += rel
		st.usage += abs
		st.lifetimeUsage += abs
		c.totalIssued++
		c.q.Issue(b)
		return
	}
	c.enqueue(st, b, abs)
}

// submitForced handles swap and metadata IO, which must never wait for
// budget: it is issued immediately and any shortfall becomes debt charged
// to the memory owner (§3.5).
func (c *Controller) submitForced(b *bio.Bio, st *iocg, abs float64, gV float64) {
	target := st
	if c.cfg.DebtChargeRoot {
		// Ablation: charge the root, i.e. nobody. The leaker runs free.
		root := st.cg
		for !root.IsRoot() {
			root = root.Parent()
		}
		target = c.stateFor(root)
		target.lastIOPeriod = c.periodSeq
	}
	c.payDebt(target, gV)
	hw := target.cg.HweightInuse()
	rel := abs / hw
	if target.debt == 0 && target.waiters.Empty() && target.vtime+rel <= gV+marginMinPct*c.periodVns() {
		target.vtime += rel
		target.usage += abs
		target.lifetimeUsage += abs
	} else {
		target.debt += abs
		c.totalDebtAbs += abs
		target.noteDebt(c.q.Now())
		if c.sink != nil {
			c.sink.ControllerEvent(c.q.Now(), CtlDebtIncur, target.cg, target.debt)
		}
	}
	c.totalIssued++
	c.q.Issue(b)
}

// enqueue adds b to st's wait queue and schedules a kick. A donor that gets
// throttled rescinds its donation on the spot (§3.6's issue-path rescind).
func (c *Controller) enqueue(st *iocg, b *bio.Bio, abs float64) {
	if st.cg.Inuse() < st.cg.Weight() {
		st.cg.ResetInuse()
	}
	b.Charge = abs
	st.waiters.Push(b)
	st.hadWait = true
	c.shortage = true
	c.totalWaited++
	c.kickWaiters(st)
}

// kickWaiters issues as many queued bios as budget allows and schedules the
// next wake-up.
func (c *Controller) kickWaiters(st *iocg) {
	now := c.q.Now()
	gV := c.gvtime(now)
	c.payDebt(st, gV)

	hadWaiters := !st.waiters.Empty()
	for st.debt == 0 {
		b := st.waiters.Peek()
		if b == nil {
			break
		}
		hw := st.cg.HweightInuse()
		rel := b.Charge / hw
		if st.vtime+rel > gV+marginMinPct*c.periodVns() {
			break
		}
		st.vtime += rel
		st.usage += b.Charge
		st.lifetimeUsage += b.Charge
		st.waiters.Pop()
		st.waitNS += now - b.Submitted
		c.totalIssued++
		c.q.Issue(b)
	}

	if st.waiters.Empty() {
		if hadWaiters {
			st.waitEndAt = now
		}
		if st.debt == 0 {
			if st.kickAt != 0 {
				c.q.Engine().Cancel(st.kick)
				st.kickAt = 0
			}
			return
		}
	}

	// Compute when budget will cover the next obligation.
	hw := st.cg.HweightInuse()
	var needV float64
	if st.debt > 0 {
		needV = st.vtime + st.debt/hw - gV
	} else {
		needV = st.vtime + st.waiters.Peek().Charge/hw - gV - marginMinPct*c.periodVns()
	}
	if needV < 0 {
		needV = 0
	}
	wake := now + sim.Time(needV/c.vrate) + 1
	if st.kickAt != 0 && st.kickAt <= wake {
		return // an earlier or equal kick is already scheduled
	}
	if st.kickAt != 0 {
		c.q.Engine().Cancel(st.kick)
	}
	st.kickAt = wake
	st.kick = c.q.Engine().At(wake, st.kickFn)
}

// Completed implements blk.Controller: QoS latency accounting (§3.3).
func (c *Controller) Completed(b *bio.Bio) {
	lat := b.DeviceLatency()
	var target sim.Time
	if b.Op == bio.Read {
		target = c.qos.RLat
	} else {
		target = c.qos.WLat
	}
	if lat <= target {
		c.latMet[b.Op]++
	} else {
		c.latMissed[b.Op]++
	}
}

// periodTick is the planning path (§3.1.2): vrate adjustment, budget
// donation, deactivation of idle cgroups and waiter kicks.
func (c *Controller) periodTick() {
	now := c.q.Now()
	c.periodSeq++

	// --- Device saturation signals.
	missPct := func(op bio.Op) float64 {
		total := c.latMet[op] + c.latMissed[op]
		if total == 0 {
			return 0
		}
		return 100 * float64(c.latMissed[op]) / float64(total)
	}
	missR, missW := missPct(bio.Read), missPct(bio.Write)
	depTime, depHits := c.q.TakeDepletion()
	satLatR := missR > 100-c.qos.RPct
	satLatW := missW > 100-c.qos.WPct
	satDep := depHits > 0 && depTime > c.period/50
	saturated := satLatR || satLatW || satDep

	// --- vrate adjustment (§3.3).
	if !c.cfg.DisableVrateAdj {
		switch {
		case saturated:
			step := vrateStepDown
			if missR > 2*(100-c.qos.RPct) || missW > 2*(100-c.qos.WPct) {
				step = vrateStepDownHard
			}
			c.setVrate(now, c.vrate*step)
		case c.shortage:
			c.setVrate(now, c.vrate*vrateStepUp)
		}
		c.clampVrate()
	}

	// --- Budget donation (§3.6).
	donors := 0
	if !c.cfg.DisableDonation {
		donors = c.donate()
		if donors > 0 && c.sink != nil {
			c.sink.ControllerEvent(now, CtlDonation, nil, float64(donors))
		}
	}

	// --- Per-cgroup upkeep: clamp banked budget, kick waiters, deactivate
	// idle cgroups.
	gV := c.gvtime(now)
	active := 0
	for _, st := range c.order {
		cg := st.cg
		if st.waiters.Empty() && st.debt == 0 {
			c.clampBudget(st, gV)
		}
		// Debt forgiveness, as the kernel's ioc_forgive_debts: an
		// indebted cgroup pays what one period's budget covers; debt
		// beyond that decays by half each period. Without this, a
		// cgroup whose pages keep being reclaimed under someone else's
		// memory pressure can be starved indefinitely by charges it
		// never chose to incur.
		if st.debt > 0 {
			if cap := st.cg.HweightActive() * c.periodVns(); st.debt > cap {
				st.debt = cap + (st.debt-cap)*0.5
			}
			st.noteDebt(now)
		}
		if DebugSlowWaiter != nil && !st.waiters.Empty() {
			head := st.waiters.Peek()
			if age := now - head.Submitted; age > 200*sim.Millisecond {
				hw := cg.HweightInuse()
				DebugSlowWaiter(cg, age, st.waiters.Len(), gV-st.vtime, head.Charge/hw, hw, c.vrate, st.debt)
			}
		}
		c.kickWaiters(st)
		idle := st.lastIOPeriod+2 <= c.periodSeq &&
			st.waiters.Empty() && st.debt == 0
		if idle && cg.Active() && !cg.IsRoot() && cg.ActiveChildren() == 0 {
			cg.ResetInuse()
			cg.Deactivate()
		}
		if cg.Active() && !cg.IsRoot() {
			active++
		}
		st.usage = 0
		st.hadWait = false
	}

	c.lastPeriod = PeriodStats{
		Now:         now,
		Vrate:       c.vrate,
		Saturated:   saturated,
		Shortage:    c.shortage,
		MissedRPct:  missR,
		MissedWPct:  missW,
		DepletionNS: depTime,
		ActiveCGs:   active,
		Donors:      donors,
	}
	if c.cfg.OnPeriod != nil {
		c.cfg.OnPeriod(c.lastPeriod)
	}

	c.latMet = [2]uint64{}
	c.latMissed = [2]uint64{}
	c.shortage = false

	if c.sink != nil {
		c.sink.ControllerEvent(now, CtlPeriodTick, nil, c.vrate)
	}
}

// Debt returns cg's outstanding absolute debt in occupancy-nanoseconds.
func (c *Controller) Debt(cg *cgroup.Node) float64 {
	if st := c.lookup(cg); st != nil {
		return st.debt
	}
	return 0
}

// Delay returns how long a task in cg should be stalled before returning to
// userspace to pay for memory-management IO issued on its behalf (§3.5).
// Zero means no stall is needed.
func (c *Controller) Delay(cg *cgroup.Node) sim.Time {
	st := c.lookup(cg)
	if st == nil || st.debt <= debtStallThreshold {
		return 0
	}
	c.payDebt(st, c.gvtime(c.q.Now()))
	if st.debt <= debtStallThreshold {
		return 0
	}
	hw := st.cg.HweightInuse()
	d := sim.Time(st.debt / hw / c.vrate)
	if max := 250 * sim.Millisecond; d > max {
		d = max
	}
	return d
}

// Features implements ctl.FeatureReporter: IOCost's Table 1 row.
func (c *Controller) Features() ctl.Features {
	return ctl.Features{
		LowOverhead:    ctl.Yes,
		WorkConserving: ctl.Yes,
		MemoryAware:    ctl.Yes,
		Proportional:   ctl.Yes,
		CgroupControl:  ctl.Yes,
	}
}

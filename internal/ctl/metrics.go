package ctl

import (
	"sort"

	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/registry"
)

// cgPath labels a cgroup, mapping the nil (rootless) cgroup to "/" so every
// series carries the label.
func cgPath(cg *cgroup.Node) string {
	if cg == nil {
		return "/"
	}
	return cg.Path()
}

// RegisterMetrics contributes the token-bucket throttler's state: how many
// bios are currently parked waiting for bucket admission, and how far in the
// future each configured cgroup's buckets are booked (0 when a direction has
// headroom now). Bucket rows sort by cgroup path for deterministic output.
func (c *Throttle) RegisterMetrics(r *registry.Registry) {
	r.GaugeFunc("throttle_pending", "bios delayed by a token bucket, not yet issued", nil,
		func() float64 { return float64(c.pending) })
	perDir := func(name, help string, pick func(*throttleState, int) float64) {
		r.Collector(name, registry.Gauge, help, func(emit func([]registry.Label, float64)) {
			type row struct {
				path string
				st   *throttleState
			}
			rows := make([]row, 0, len(c.state))
			for cg, st := range c.state {
				rows = append(rows, row{cgPath(cg), st})
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].path < rows[j].path })
			now := float64(c.q.Now())
			for _, rw := range rows {
				for op, dir := range [2]string{"read", "write"} {
					v := pick(rw.st, op) - now
					if v < 0 {
						v = 0
					}
					emit(registry.L("cgroup", rw.path, "dir", dir), v/1e9)
				}
			}
		})
	}
	perDir("throttle_io_wait_seconds", "time until the IOPS bucket admits the next request",
		func(st *throttleState, op int) float64 { return float64(st.nextIO[op]) })
	perDir("throttle_byte_wait_seconds", "time until the bandwidth bucket admits the next byte",
		func(st *throttleState, op int) float64 { return float64(st.nextByte[op]) })
}

// RegisterMetrics contributes kyber's per-direction state: the adaptive
// depth limit, tokens in use, and queued bios.
func (c *Kyber) RegisterMetrics(r *registry.Registry) {
	perDir := func(name, help string, pick func(op int) float64) {
		r.Collector(name, registry.Gauge, help, func(emit func([]registry.Label, float64)) {
			emit(registry.L("dir", "read"), pick(0))
			emit(registry.L("dir", "write"), pick(1))
		})
	}
	perDir("kyber_depth", "adaptive dispatch depth limit",
		func(op int) float64 { return float64(c.depth[op]) })
	perDir("kyber_inuse", "dispatch tokens in use",
		func(op int) float64 { return float64(c.inUse[op]) })
	perDir("kyber_queued", "bios waiting for a dispatch token",
		func(op int) float64 { return float64(c.wait[op].Len()) })
}

// RegisterMetrics contributes mq-deadline's queue depths per direction.
func (c *MQDeadline) RegisterMetrics(r *registry.Registry) {
	r.Collector("mq_deadline_queued", registry.Gauge, "requests staged in the scheduler",
		func(emit func([]registry.Label, float64)) {
			emit(registry.L("dir", "read"), float64(len(c.reads.byOff)))
			emit(registry.L("dir", "write"), float64(len(c.writes.byOff)))
		})
	r.GaugeFunc("mq_deadline_batch_left", "dispatches left in the current direction batch", nil,
		func() float64 { return float64(c.batchLeft) })
}

// RegisterMetrics contributes BFQ's service state: queue population, the
// active queue, and per-cgroup backlog and virtual-time tags. Per-cgroup
// emission walks the creation-order slice, matching the scheduler's own
// deterministic scan order.
func (c *BFQ) RegisterMetrics(r *registry.Registry) {
	r.GaugeFunc("bfq_queues", "per-cgroup queues instantiated", nil,
		func() float64 { return float64(len(c.order)) })
	r.GaugeFunc("bfq_active", "1 while a queue holds the service slot", nil,
		func() float64 {
			if c.active != nil {
				return 1
			}
			return 0
		})
	r.GaugeFunc("bfq_idling", "1 while idling on an empty sync queue", nil,
		func() float64 {
			if c.idling {
				return 1
			}
			return 0
		})
	perQueue := func(name, help string, pick func(*bfqQueue) float64) {
		r.Collector(name, registry.Gauge, help, func(emit func([]registry.Label, float64)) {
			for _, bq := range c.order {
				emit(registry.L("cgroup", cgPath(bq.cg)), pick(bq))
			}
		})
	}
	perQueue("bfq_cg_queued", "bios pending in the cgroup's queue",
		func(bq *bfqQueue) float64 { return float64(bq.pending.Len()) })
	perQueue("bfq_cg_inflight", "bios dispatched from the cgroup's queue",
		func(bq *bfqQueue) float64 { return float64(bq.inFlight) })
	perQueue("bfq_cg_vtag", "virtual finish time in sectors/weight",
		func(bq *bfqQueue) float64 { return bq.vtag })
}

// RegisterMetrics contributes io.latency's per-cgroup scaling state: the
// depth limit (capped at the queue's tag count when unthrottled, so the
// exported series stays meaningful), in-flight count, and queued backlog.
// Per-cgroup emission walks the creation-order slice.
func (c *IOLatency) RegisterMetrics(r *registry.Registry) {
	perCG := func(name, help string, pick func(*iolatState) float64) {
		r.Collector(name, registry.Gauge, help, func(emit func([]registry.Label, float64)) {
			for _, st := range c.order {
				emit(registry.L("cgroup", cgPath(st.cg)), pick(st))
			}
		})
	}
	perCG("iolatency_depth", "allowed in-flight window (tag count when unthrottled)",
		func(st *iolatState) float64 {
			if st.depth >= unthrottled {
				return float64(c.q.Tags())
			}
			return float64(st.depth)
		})
	perCG("iolatency_inflight", "bios in flight for the cgroup",
		func(st *iolatState) float64 { return float64(st.inFlight) })
	perCG("iolatency_queued", "bios held back by the depth window",
		func(st *iolatState) float64 { return float64(st.wait.Len()) })
}

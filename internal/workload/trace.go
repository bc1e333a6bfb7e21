package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/sim"
)

// TraceOp is one record of an IO trace.
type TraceOp struct {
	// At is the issue time relative to trace start.
	At sim.Time
	Op bio.Op
	// Off and Size are in bytes.
	Off  int64
	Size int64
	// CG, when non-empty, is the cgroup path the op is charged to.
	// Captured traces carry it so multi-cgroup runs replay faithfully;
	// plain traces leave it empty and the replayer's cgroup applies.
	CG string
}

// ParseTrace reads a whitespace-separated trace with one operation per
// line:
//
//	<time-us> <r|w> <offset-bytes> <size-bytes> [cgroup-path]
//
// The cgroup column is optional (it appears in traces captured from
// multi-cgroup simulations). Empty lines and lines starting with '#' are
// skipped. Records must be in non-decreasing time order.
func ParseTrace(r io.Reader) ([]TraceOp, error) {
	var ops []TraceOp
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 && len(f) != 5 {
			return nil, fmt.Errorf("workload: trace line %d: want 4 or 5 fields, got %d", lineNo, len(f))
		}
		tUS, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: time: %v", lineNo, err)
		}
		var op bio.Op
		switch strings.ToLower(f[1]) {
		case "r", "read":
			op = bio.Read
		case "w", "write":
			op = bio.Write
		default:
			return nil, fmt.Errorf("workload: trace line %d: op %q", lineNo, f[1])
		}
		off, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: offset: %v", lineNo, err)
		}
		size, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad size %q", lineNo, f[3])
		}
		at := sim.Time(math.Round(tUS * float64(sim.Microsecond)))
		if len(ops) > 0 && at < ops[len(ops)-1].At {
			return nil, fmt.Errorf("workload: trace line %d: time goes backwards", lineNo)
		}
		top := TraceOp{At: at, Op: op, Off: off, Size: size}
		if len(f) == 5 {
			top.CG = f[4]
		}
		ops = append(ops, top)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// FormatTrace writes ops in the ParseTrace text format. Ops carrying a
// cgroup path get the optional fifth column; ops without one stay
// four-field, so FormatTrace and ParseTrace round-trip exactly.
func FormatTrace(w io.Writer, ops []TraceOp) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# time-us op offset-bytes size-bytes [cgroup]")
	for i := range ops {
		op := &ops[i]
		dir := "r"
		if op.Op == bio.Write {
			dir = "w"
		}
		us := strconv.FormatFloat(float64(op.At)/float64(sim.Microsecond), 'f', -1, 64)
		if op.CG != "" {
			fmt.Fprintf(bw, "%s %s %d %d %s\n", us, dir, op.Off, op.Size, op.CG)
		} else {
			fmt.Fprintf(bw, "%s %s %d %d\n", us, dir, op.Off, op.Size)
		}
	}
	return bw.Flush()
}

// TraceReplayer issues a recorded trace against a queue, open-loop at the
// trace's own timing (optionally time-scaled).
type TraceReplayer struct {
	q   *blk.Queue
	cg  *cgroup.Node
	ops []TraceOp
	// Speed scales replay: 2.0 issues the trace twice as fast. 0 selects
	// 1.0.
	Speed float64

	Stats   *Stats
	idx     int
	base    sim.Time // replay start; op times are offsets from it
	stopped bool
	// onDone is built once: with pooled bios and a package-level tick
	// func, replaying an op allocates nothing.
	onDone func(*bio.Bio)
}

// NewTraceReplayer builds a replayer for ops, charged to cg.
func NewTraceReplayer(q *blk.Queue, cg *cgroup.Node, ops []TraceOp) *TraceReplayer {
	w := &TraceReplayer{q: q, cg: cg, ops: ops, Speed: 1.0, Stats: newStats()}
	w.onDone = w.Stats.observe
	return w
}

// Start begins replay from the current simulated time.
func (w *TraceReplayer) Start() {
	if w.Speed == 0 {
		w.Speed = 1.0
	}
	w.base = w.q.Now()
	w.scheduleNext()
}

// Stop ceases issuing.
func (w *TraceReplayer) Stop() { w.stopped = true }

// Done reports whether the whole trace has been issued.
func (w *TraceReplayer) Done() bool { return w.idx >= len(w.ops) }

func (w *TraceReplayer) scheduleNext() {
	if w.stopped || w.idx >= len(w.ops) {
		return
	}
	at := w.base + sim.Time(float64(w.ops[w.idx].At)/w.Speed)
	if now := w.q.Now(); at < now {
		at = now
	}
	w.q.Engine().AtCall(at, traceTick, w)
}

// traceTick issues the next trace op and schedules the one after it.
func traceTick(a any) {
	w := a.(*TraceReplayer)
	if w.stopped {
		return
	}
	op := &w.ops[w.idx]
	w.idx++
	b := w.q.BioPool().Get()
	b.Op = op.Op
	b.Off = op.Off
	b.Size = op.Size
	b.CG = w.cg
	b.OnDone = w.onDone
	w.q.Submit(b)
	w.scheduleNext()
}

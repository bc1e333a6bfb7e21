package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	_ "unsafe" // for go:linkname
)

// nanotime is the runtime's monotonic clock: half the cost of time.Now,
// which also reads the wall clock, on a path timed several times per bio.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// layer names one kind of span: a call from the benchmark into a layer's
// public function.
type layer uint8

const (
	layerRun          layer = iota // sim: Engine.RunUntil around a measured slice
	layerDevSubmit                 // device: Device.Submit
	layerBlkComplete               // blk: the completion callback blk hands the device
	layerCtlSubmit                 // ctl: Controller.Submit
	layerCtlCompleted              // ctl: Controller.Completed
	layerCluster                   // fleet: RunCluster
	layerMachineTick               // scenario: HostModel.Tick of a full-machine host
	numLayers
)

var layerNames = [numLayers]string{
	"sim.run", "device.submit", "blk.complete", "ctl.submit", "ctl.completed",
	"fleet.run_cluster", "scenario.machine_tick",
}

// layerStat aggregates every span of one layer.
type layerStat struct {
	calls   uint64
	totalNs int64
	// selfNs is span time not covered by child spans.
	selfNs int64
}

// span is one recorded call. parent indexes the enclosing span in
// tracer.spans, or is -1 at the top.
type span struct {
	layer      layer
	parent     int32
	start, end int64
}

// frame is an open span.
type frame struct {
	layer   layer
	idx     int32 // index in tracer.spans, -1 once the buffer is full
	start   int64
	childNs int64
}

// maxSpans bounds the spans kept in memory for writing out; aggregates
// cover every span regardless.
const maxSpans = 1 << 16

// tracer records nested spans on one goroutine: each layer's call count,
// total and self time, and the first maxSpans spans themselves.
type tracer struct {
	open  []frame
	stats [numLayers]layerStat
	spans []span
	// durs, when non-nil for a layer, receives every span duration.
	durs [numLayers][]int64
	keep [numLayers]bool
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, maxSpans)} }

// keepDurations makes the tracer retain every duration of layer l.
func (t *tracer) keepDurations(l layer) { t.keep[l] = true }

func (t *tracer) begin(l layer) {
	idx := int32(-1)
	if len(t.spans) < maxSpans {
		idx = int32(len(t.spans))
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
		}
		t.spans = append(t.spans, span{layer: l, parent: parent})
	}
	now := nanotime()
	if idx >= 0 {
		t.spans[idx].start = now
	}
	t.open = append(t.open, frame{layer: l, idx: idx, start: now})
}

func (t *tracer) end() {
	now := nanotime()
	n := len(t.open) - 1
	f := t.open[n]
	t.open = t.open[:n]
	d := now - f.start
	s := &t.stats[f.layer]
	s.calls++
	s.totalNs += d
	s.selfNs += d - f.childNs
	if t.keep[f.layer] {
		t.durs[f.layer] = append(t.durs[f.layer], d)
	}
	if f.idx >= 0 {
		t.spans[f.idx].end = now
	}
	if n > 0 {
		t.open[n-1].childNs += d
	}
}

// spansPath is where a traced run of workload writes its spans, under
// the build directory run.sh uses.
func spansPath(workload string) string {
	return filepath.Join(".bench_build", "spans-"+workload+".json")
}

// writeSpans writes the recorded spans as a Chrome trace-event file
// (loadable in Perfetto or chrome://tracing), times relative to the first
// span.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var t0 int64
	if len(t.spans) > 0 {
		t0 = t.spans[0].start
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	sep := "\n"
	for i, s := range t.spans {
		if s.end == 0 {
			continue // still open when the run stopped
		}
		fmt.Fprintf(w, `%s{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			sep, layerNames[s.layer], float64(s.start-t0)/1e3, float64(s.end-s.start)/1e3, i, s.parent)
		sep = ",\n"
	}
	fmt.Fprintln(w, "\n]}")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

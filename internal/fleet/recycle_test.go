package fleet_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/iocost-sim/iocost/internal/fleet"
)

// recycleConfig drives every Summary field RunCluster recycles between
// shards: storms, a push, sampled full machines (the Calib block), and
// flight recorders on every host with a bound low enough that triggers are
// dropped.
func recycleConfig() fleet.ClusterConfig {
	cfg := sampledConfig()
	cfg.Flight = &fleet.FleetFlight{SampleFrac: 1, FailCeil: 0.2, MaxIncidents: 5}
	return cfg
}

// renderAll is every deterministic output of a summary: text, OpenMetrics
// and JSON.
func renderAll(t *testing.T, s *fleet.Summary) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(s.Format())
	var om, js bytes.Buffer
	if err := s.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	b.Write(om.Bytes())
	b.Write(js.Bytes())
	return b.String()
}

// checkGolden compares got with testdata/name; UPDATE_FLEET_GOLDEN=1
// rewrites it.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_FLEET_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (UPDATE_FLEET_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from golden:\n--- want\n%s--- got\n%s", name, want, got)
	}
}

// TestRecycledSummariesLeakNothing: shard summaries are reset and reused,
// so any field the reset misses would leak one shard's results into the
// next. At one worker every shard after the first runs on a recycled
// summary; at 16 workers the six shards mostly run on fresh ones. All of
// them, run twice in one process, must render the same bytes, and those
// bytes are pinned.
func TestRecycledSummariesLeakNothing(t *testing.T) {
	cfg := recycleConfig()
	cfg.Workers = 1
	ref := mustRun(t, cfg)
	if ref.FlightDropped == 0 || len(ref.FlightIncidents) == 0 {
		t.Fatalf("config must both retain and drop incidents: retained %d, dropped %d",
			len(ref.FlightIncidents), ref.FlightDropped)
	}
	if ref.Calib == nil || ref.Calib.FullHosts == 0 {
		t.Fatal("config ran no full-machine hosts")
	}
	want := renderAll(t, ref)
	checkGolden(t, "recycle_golden.txt", want)
	for pass := 0; pass < 2; pass++ {
		for _, workers := range []int{1, 4, 16} {
			cfg.Workers = workers
			if got := renderAll(t, mustRun(t, cfg)); got != want {
				t.Errorf("pass %d workers=%d: output differs from the first serial run:\n--- first\n%s--- got\n%s",
					pass, workers, want, got)
			}
		}
	}
}

// TestSimulateHostGolden pins SimulateHost's per-tick views byte for byte,
// for stormed and healthy racks, outcome and full-machine hosts (in the
// sampled config host 63, on stormed rack 3, runs a full machine).
func TestSimulateHostGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  fleet.ClusterConfig
	}{{"golden", goldenConfig()}, {"sampled", sampledConfig()}} {
		for _, h := range []int{0, 5, 48, 63, 100, 191} {
			views, err := fleet.SimulateHost(c.cfg, h)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range views {
				fmt.Fprintf(&b, "%s host=%d %+v\n", c.name, h, v)
			}
		}
	}
	checkGolden(t, "simulate_host_golden.txt", b.String())
}

# Tier-1: the checks every change must keep green. See TESTING.md for the
# full tier ladder.
.PHONY: all build test bench bench-json bench-check ci ci-full fuzz-smoke fuzz-smoke-faults trace-smoke monitor-smoke fault-smoke fleet-smoke tune-smoke incident-smoke perfbench-test

all: build test

build:
	go build ./...

test:
	go test ./...

# Engine microbenchmarks (scheduler hot path) + the per-figure harness.
bench:
	go test -bench=BenchmarkEngine -benchmem ./internal/sim/

# Hot-path benchmarks (event engine + trace recorder + whole-stack
# BenchmarkMachine bios/sec matrix) as structured JSON. Writes BENCH_6.json,
# the committed reference for the bench budget; BENCHTIME=10x for a quick
# CI pass to another path.
bench-json:
	./scripts/bench-json.sh

# Bench budget gate: fresh BenchmarkMachine bios/sec vs the committed
# BENCH_6.json reference; >15% regression on any row fails. Part of tier-2
# CI. See TESTING.md for the noise/regeneration workflow.
bench-check:
	./scripts/bench-check.sh

# Repository benchmark self-tests (perfbench/, its own Go module): metric
# names match BENCHMARK.json, short runs of every workload pass their output
# checks, and the digest pins hold. Same environment as perfbench/run.sh:
# offline, local toolchain, caches under .bench_build. Part of tier-2 CI.
perfbench-test:
	@set -e; out="$$(pwd)/.bench_build"; mkdir -p "$$out"; \
	cd perfbench && GOCACHE="$$out/gocache" GOMODCACHE="$$out/gomodcache" GOFLAGS= \
		GOWORK=off GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$$out/config" go test ./...

# Tier-2: vet + race detector, including the parallel experiment fan-out.
ci:
	./scripts/ci.sh

# Tier-3: tier-2 plus the fuzz smoke and a sanitizer-enabled suite run.
ci-full:
	./scripts/ci.sh tier3

# 30-second scenario-fuzzer smoke: random scenarios through all seven
# controllers with the invariant sanitizer on, until the budget expires.
# Failures print the seed and an exact replay command (see TESTING.md).
fuzz-smoke:
	go test ./internal/simfuzz -run TestFuzzSmoke -count=1 -base=2000000 -smoke=30s

# Fault shard of the fuzz smoke: the same budgeted sweep, but every scenario
# carries a seed-derived device fault plan, so the sanitizer and drain checks
# run against live error/retry/timeout paths. Seeds are disjoint from both
# the fixed batch and the healthy smoke.
fuzz-smoke-faults:
	go test ./internal/simfuzz -run TestFuzzSmoke -count=1 -base=3000000 -smoke=15s -faults

# Telemetry round-trip smoke: capture the same scenario seed twice and
# require byte-identical binary traces (capture determinism), then run the
# dump, analyze, diff and export passes over them. Part of tier-2 CI.
trace-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	go run ./cmd/iocost-trace capture -seed 7 -o "$$dir/a.trace" >/dev/null; \
	go run ./cmd/iocost-trace capture -seed 7 -o "$$dir/b.trace" >/dev/null; \
	cmp "$$dir/a.trace" "$$dir/b.trace"; \
	go run ./cmd/iocost-trace dump -n 10 "$$dir/a.trace" >/dev/null; \
	go run ./cmd/iocost-trace analyze "$$dir/a.trace" >/dev/null; \
	go run ./cmd/iocost-trace diff "$$dir/a.trace" "$$dir/b.trace" >/dev/null; \
	go run ./cmd/iocost-trace export -o "$$dir/a.txt" "$$dir/a.trace" >/dev/null; \
	echo "trace-smoke OK: capture deterministic, toolchain round-trips"

# Observability smoke: run the same short scenario twice with metrics on and
# require byte-identical OpenMetrics exports (scrape determinism), then
# validate the JSON export against its schema and exercise iocost-sim
# -metrics. Part of tier-2 CI.
monitor-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	go run ./cmd/iocost-monitor -seconds 2 -seed 7 -mode openmetrics -o "$$dir/a.om"; \
	go run ./cmd/iocost-monitor -seconds 2 -seed 7 -mode openmetrics -o "$$dir/b.om"; \
	cmp "$$dir/a.om" "$$dir/b.om"; \
	go run ./cmd/iocost-monitor -seconds 2 -seed 7 -mode json -o "$$dir/a.json"; \
	go run ./cmd/iocost-monitor -check "$$dir/a.json" >/dev/null; \
	go run ./cmd/iocost-sim -seconds 2 -seed 7 -metrics "$$dir/sim.om" >/dev/null; \
	grep -q '^# EOF' "$$dir/sim.om"; \
	echo "monitor-smoke OK: exports deterministic, JSON schema valid"

# Failure-semantics smoke: run the storm fault preset (10x latency + 1%
# errors) twice with the same seed and require byte-identical traces and
# metrics exports — fault injection must be exactly as deterministic as the
# healthy path — then require that failures were actually injected and that
# the faulted metrics export still validates. Part of tier-2 CI.
fault-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	go run ./cmd/iocost-sim -seconds 8 -seed 7 -faults storm -trace "$$dir/a.trace" -metrics "$$dir/a.json" > "$$dir/a.out"; \
	go run ./cmd/iocost-sim -seconds 8 -seed 7 -faults storm -trace "$$dir/b.trace" -metrics "$$dir/b.json" >/dev/null; \
	cmp "$$dir/a.trace" "$$dir/b.trace"; \
	cmp "$$dir/a.json" "$$dir/b.json"; \
	grep -q 'injected errors' "$$dir/a.out"; \
	go run ./cmd/iocost-monitor -check "$$dir/a.json" >/dev/null; \
	echo "fault-smoke OK: faulted runs deterministic, failures injected, metrics valid"

# Cluster-scale smoke: the full 100k-host sharded fleet run at three worker
# counts (serial, 4, 16) must produce byte-identical summaries — the
# worker-count-invariance contract of internal/fleet, end to end through the
# CLI — and the streaming aggregation must hold retained memory bounded
# (TestClusterBoundedMemory compares 2k- vs 32k-host retained heap). Part of
# tier-2 CI.
fleet-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	go build -o "$$dir/iocost-fleet" ./cmd/iocost-fleet; \
	"$$dir/iocost-fleet" -hosts 100000 -seed 7 -push -storm-racks 0,1 -storm 'slow:at=4s,dur=2s,factor=10' -workers 1 -o "$$dir/w1.txt"; \
	"$$dir/iocost-fleet" -hosts 100000 -seed 7 -push -storm-racks 0,1 -storm 'slow:at=4s,dur=2s,factor=10' -workers 4 -o "$$dir/w4.txt"; \
	"$$dir/iocost-fleet" -hosts 100000 -seed 7 -push -storm-racks 0,1 -storm 'slow:at=4s,dur=2s,factor=10' -workers 16 -o "$$dir/w16.txt"; \
	cmp "$$dir/w1.txt" "$$dir/w4.txt"; \
	cmp "$$dir/w1.txt" "$$dir/w16.txt"; \
	"$$dir/iocost-fleet" -hosts 100000 -seed 7 -workers 4 -mode openmetrics -o "$$dir/w4.om"; \
	"$$dir/iocost-fleet" -hosts 100000 -seed 7 -workers 16 -mode openmetrics -o "$$dir/w16.om"; \
	cmp "$$dir/w4.om" "$$dir/w16.om"; \
	go test ./internal/fleet -run TestClusterBoundedMemory -count=1 >/dev/null; \
	"$$dir/iocost-fleet" -hosts 10000 -seed 7 -fidelity sampled -sample-frac 0.01 -workers 1 -o "$$dir/s1.txt"; \
	"$$dir/iocost-fleet" -hosts 10000 -seed 7 -fidelity sampled -sample-frac 0.01 -workers 4 -o "$$dir/s4.txt"; \
	cmp "$$dir/s1.txt" "$$dir/s4.txt"; \
	"$$dir/iocost-fleet" -hosts 10000 -seed 7 -fidelity sampled -sample-frac 0.01 -workers 1 -mode openmetrics -o "$$dir/s1.om"; \
	"$$dir/iocost-fleet" -hosts 10000 -seed 7 -fidelity sampled -sample-frac 0.01 -workers 4 -mode openmetrics -o "$$dir/s4.om"; \
	cmp "$$dir/s1.om" "$$dir/s4.om"; \
	grep -q 'fidelity: full-machine hosts=' "$$dir/s1.txt"; \
	echo "fleet-smoke OK: 100k hosts byte-identical at workers 1/4/16, memory bounded; 10k sampled-fidelity run byte-identical at workers 1/4"

# Incident-observability smoke: the flight recorder and Perfetto export are
# part of the determinism contract. The same storm run armed with -flight
# twice must produce byte-identical incident bundles (and at least one must
# fire — a storm with a silent black box is a regression); the bundles must
# pass `iocost-trace bundle -check`; and exporting the same capture to
# Perfetto twice must be byte-identical so timeline JSON can be golden-
# tested. Part of tier-2 CI.
incident-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	go run ./cmd/iocost-sim -seconds 8 -seed 7 -faults storm -flight "$$dir/a" > "$$dir/a.out"; \
	go run ./cmd/iocost-sim -seconds 8 -seed 7 -faults storm -flight "$$dir/b" >/dev/null; \
	ls "$$dir/a" | grep -q 'incident-000'; \
	for f in "$$dir"/a/incident-*.json; do \
		cmp "$$f" "$$dir/b/$$(basename $$f)"; \
		go run ./cmd/iocost-trace bundle -check "$$f" >/dev/null; \
	done; \
	grep -q 'fault-blame' "$$dir/a.out"; \
	go run ./cmd/iocost-trace capture -seed 7 -o "$$dir/a.trace" >/dev/null; \
	go run ./cmd/iocost-trace export-perfetto -o "$$dir/a.pftrace.json" "$$dir/a.trace" >/dev/null; \
	go run ./cmd/iocost-trace export-perfetto -o "$$dir/b.pftrace.json" "$$dir/a.trace" >/dev/null; \
	cmp "$$dir/a.pftrace.json" "$$dir/b.pftrace.json"; \
	go run ./cmd/iocost-trace export-perfetto -o "$$dir/i.pftrace.json" "$$dir"/a/incident-000-*.json >/dev/null; \
	grep -q 'traceEvents' "$$dir/i.pftrace.json"; \
	echo "incident-smoke OK: bundles byte-identical and valid, Perfetto export deterministic"

# Auto-tuner smoke: the same (seed, scenario, objective) must produce
# byte-identical recommendations — JSON and table — at workers 1 and 4,
# and the emitted JSON must pass its own schema check. The recommendation
# being a pure function of the seed is the contract that makes tuning
# results citable. Part of tier-2 CI.
tune-smoke:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	go build -o "$$dir/iocost-tune" ./cmd/iocost-tune; \
	"$$dir/iocost-tune" -scenario fleet-a -seed 7 -candidates 8 -window 250 -warmup 150 -hill 1 -q -json -workers 1 -o "$$dir/w1.json"; \
	"$$dir/iocost-tune" -scenario fleet-a -seed 7 -candidates 8 -window 250 -warmup 150 -hill 1 -q -json -workers 4 -o "$$dir/w4.json"; \
	cmp "$$dir/w1.json" "$$dir/w4.json"; \
	"$$dir/iocost-tune" -scenario fleet-a -seed 7 -candidates 8 -window 250 -warmup 150 -hill 1 -q -workers 1 -o "$$dir/w1.txt"; \
	"$$dir/iocost-tune" -scenario fleet-a -seed 7 -candidates 8 -window 250 -warmup 150 -hill 1 -q -workers 4 -o "$$dir/w4.txt"; \
	cmp "$$dir/w1.txt" "$$dir/w4.txt"; \
	"$$dir/iocost-tune" -check "$$dir/w1.json" >/dev/null; \
	echo "tune-smoke OK: recommendation byte-identical at workers 1/4, JSON schema valid"

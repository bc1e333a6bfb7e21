// Package iocost is a simulation-backed reproduction of IOCost, the block IO
// controller for containerized datacenters described in "IOCost: Block IO
// Control for Containers in Datacenters" (ASPLOS 2022). It bundles a
// deterministic discrete-event simulation of the Linux block layer, storage
// devices, the cgroup hierarchy and the memory-management subsystem with
// implementations of IOCost and every baseline controller the paper
// evaluates (mq-deadline, kyber, blk-throttle, BFQ, io.latency).
//
// The top-level entry point is a Machine: a simulated host with one device,
// one IO controller, a cgroup hierarchy and optionally a memory pool.
// Workloads issue IO against cgroups; the simulation runs on a virtual clock
// so experiments are fast and perfectly repeatable.
//
//	spec := iocost.OlderGenSSD()
//	m := iocost.NewMachine(iocost.MachineConfig{
//		Device:     iocost.SSD(spec),
//		Controller: iocost.ControllerIOCost,
//	})
//	hi := m.Workload.NewChild("hi", 200)
//	lo := m.Workload.NewChild("lo", 100)
//	... attach workloads, m.Run(10 * iocost.Second) ...
//
// Everything the paper's evaluation measures is available under the
// experiment harness (the iocost-bench command and the bench suite).
package iocost

import (
	"github.com/iocost-sim/iocost/internal/bio"
	"github.com/iocost-sim/iocost/internal/blk"
	"github.com/iocost-sim/iocost/internal/cgroup"
	"github.com/iocost-sim/iocost/internal/core"
	"github.com/iocost-sim/iocost/internal/ctl"
	"github.com/iocost-sim/iocost/internal/device"
	"github.com/iocost-sim/iocost/internal/exp"
	"github.com/iocost-sim/iocost/internal/fault"
	"github.com/iocost-sim/iocost/internal/flight"
	"github.com/iocost-sim/iocost/internal/mem"
	"github.com/iocost-sim/iocost/internal/metrics"
	"github.com/iocost-sim/iocost/internal/profiler"
	"github.com/iocost-sim/iocost/internal/rcb"
	"github.com/iocost-sim/iocost/internal/registry"
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/slo"
	"github.com/iocost-sim/iocost/internal/span"
	"github.com/iocost-sim/iocost/internal/trace"
	"github.com/iocost-sim/iocost/internal/tune"
	"github.com/iocost-sim/iocost/internal/workload"
	"github.com/iocost-sim/iocost/internal/zk"
)

// Simulated time. Time is in nanoseconds on the virtual clock.
type Time = sim.Time

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Engine is the discrete-event simulation engine.
type Engine = sim.Engine

// NewEngine returns a fresh simulation engine, for multi-machine topologies
// that share one virtual clock via MachineConfig.Engine.
func NewEngine() *Engine { return sim.New() }

// Controller kind names accepted by MachineConfig.Controller.
const (
	ControllerNone      = exp.KindNone
	ControllerMQDL      = exp.KindMQDL
	ControllerKyber     = exp.KindKyber
	ControllerThrottle  = exp.KindThrottle
	ControllerBFQ       = exp.KindBFQ
	ControllerIOLatency = exp.KindIOLatency
	ControllerIOCost    = exp.KindIOCost
)

// Machine is a fully assembled simulated host. See exp.Machine for fields:
// Q (the block queue), Workload/System/HostCritical (the Figure 1 cgroup
// slices), IOCost (the controller, when selected) and Mem (the optional
// memory pool).
type Machine = exp.Machine

// MachineConfig configures NewMachine.
type MachineConfig = exp.MachineConfig

// DeviceChoice selects the device model; construct with SSD, HDD or Remote.
type DeviceChoice = exp.DeviceChoice

// NewMachine assembles a host from cfg. Configuration errors — no device
// selected, an unregistered controller name, a malformed fault plan — are
// returned, not panicked; validate ahead of time with MachineConfig.Validate.
func NewMachine(cfg MachineConfig) (*Machine, error) { return exp.NewMachine(cfg) }

// MustNewMachine is NewMachine for configurations known correct at compile
// time; it panics on error.
func MustNewMachine(cfg MachineConfig) *Machine { return exp.MustNewMachine(cfg) }

// ControllerNames lists every registered controller, sorted — what
// MachineConfig.Controller and ctl.New accept.
func ControllerNames() []string { return ctl.Names() }

// SSD selects a flash device model.
func SSD(spec SSDSpec) DeviceChoice { return DeviceChoice{SSD: &spec} }

// HDD selects a spinning-disk model.
func HDD(spec HDDSpec) DeviceChoice { return DeviceChoice{HDD: &spec} }

// Remote selects a cloud block-store model.
func Remote(spec RemoteSpec) DeviceChoice { return DeviceChoice{Remote: &spec} }

// ParseDevice resolves a named device model — the single vocabulary behind
// every -device flag. See DeviceNames for the catalog.
func ParseDevice(name string) (DeviceChoice, error) { return exp.ParseDevice(name) }

// DeviceNames lists every name ParseDevice accepts, sorted.
func DeviceNames() []string { return exp.DeviceNames() }

// Device models.
type (
	// SSDSpec parameterizes a flash device.
	SSDSpec = device.SSDSpec
	// HDDSpec parameterizes a spinning disk.
	HDDSpec = device.HDDSpec
	// RemoteSpec parameterizes a cloud volume.
	RemoteSpec = device.RemoteSpec
)

// Stock device profiles used throughout the paper's evaluation.
var (
	OlderGenSSD   = device.OlderGenSSD
	NewerGenSSD   = device.NewerGenSSD
	EnterpriseSSD = device.EnterpriseSSD
	EvalHDD       = device.EvalHDD
	EBSgp3        = device.EBSgp3
	EBSio2        = device.EBSio2
	GCPBalanced   = device.GCPBalanced
	GCPSSD        = device.GCPSSD
)

// The IOCost controller and its configuration.
type (
	// Controller is the IOCost controller itself.
	Controller = core.Controller
	// ControllerConfig parameterizes IOCost (cost model, QoS, ablation
	// switches). Used as MachineConfig.IOCostCfg.
	ControllerConfig = core.Config
	// QoS is the device quality-of-service configuration (§3.3).
	QoS = core.QoS
	// LinearParams is the six-parameter linear cost model configuration
	// (Figure 6).
	LinearParams = core.LinearParams
	// LinearModel is the compiled linear cost model.
	LinearModel = core.LinearModel
	// Model is the pluggable cost-model interface.
	Model = core.Model
	// ModelFunc adapts a function to Model.
	ModelFunc = core.ModelFunc
	// PeriodStats is the planning path's per-period telemetry.
	PeriodStats = core.PeriodStats
)

// NewLinearModel compiles linear cost-model parameters.
func NewLinearModel(p LinearParams) (*LinearModel, error) { return core.NewLinearModel(p) }

// MustLinearModel is NewLinearModel that panics on error.
func MustLinearModel(p LinearParams) *LinearModel { return core.MustLinearModel(p) }

// DefaultQoS returns permissive starting QoS parameters.
func DefaultQoS() QoS { return core.DefaultQoS() }

// TunedQoS derives §3.4-style QoS parameters for an SSD.
var TunedQoS = tune.HandTunedSSD

// IdealParams derives cost-model parameters analytically from an SSD spec.
var IdealParams = tune.IdealSSDParams

// Cgroups.
type (
	// CGroup is one node of the weight hierarchy.
	CGroup = cgroup.Node
	// Hierarchy is the cgroup tree.
	Hierarchy = cgroup.Hierarchy
)

// NewHierarchy returns a fresh cgroup tree.
func NewHierarchy() *Hierarchy { return cgroup.NewHierarchy() }

// Block layer and IO types.
type (
	// Queue is the per-device block layer.
	Queue = blk.Queue
	// Bio is one block IO request.
	Bio = bio.Bio
	// Op is a request direction.
	Op = bio.Op
	// Flags are request attributes.
	Flags = bio.Flags
)

// Request directions and flags.
const (
	Read  = bio.Read
	Write = bio.Write
	Sync  = bio.Sync
	Swap  = bio.Swap
	Meta  = bio.Meta
)

// BioStatus is a bio's completion status.
type BioStatus = bio.Status

// Completion statuses.
const (
	StatusOK      = bio.StatusOK
	StatusError   = bio.StatusError
	StatusTimeout = bio.StatusTimeout
)

// RetryPolicy governs block-layer failure handling: per-bio dispatch
// deadlines and bounded exponential-backoff retries. Used as
// MachineConfig.Retry; the zero value disables both.
type RetryPolicy = blk.RetryPolicy

// DefaultRetryPolicy returns the kernel-like failure-handling defaults
// (3 retries, 1ms initial backoff, 30s timeout).
func DefaultRetryPolicy() RetryPolicy { return blk.DefaultRetryPolicy() }

// Fault injection (enable with MachineConfig.Faults; the injector is
// Machine.Fault).
type (
	// FaultPlan is a declarative fault schedule: episodes of errors,
	// stalls, slowdowns, GC storms and IOPS-cap collapses on the virtual
	// clock.
	FaultPlan = fault.Plan
	// FaultEpisode is one failure window of a plan.
	FaultEpisode = fault.Episode
	// FaultKind is a failure mode.
	FaultKind = fault.Kind
	// FaultInjector wraps a device and executes a plan deterministically.
	FaultInjector = fault.Injector
)

// Failure modes.
const (
	FaultError   = fault.Error
	FaultStall   = fault.Stall
	FaultSlow    = fault.Slow
	FaultGCStorm = fault.GCStorm
	FaultIOPSCap = fault.IOPSCap
)

// Fault-plan constructors.
var (
	// ParseFaultPlan parses a preset name ("storm", "flaky", ...) or a
	// kind:at=...,dur=... episode list.
	ParseFaultPlan = fault.ParsePlan
	// FaultPresets returns the named stock plans.
	FaultPresets = fault.Presets
	// NewFaultInjector wraps any device with a plan for hand-assembled
	// topologies; NewMachine does this automatically for Faults configs.
	NewFaultInjector = fault.NewInjector
)

// Memory subsystem.
type (
	// MemPool is the simulated memory subsystem.
	MemPool = mem.Pool
	// MemConfig parameterizes it. Used as MachineConfig.Mem.
	MemConfig = mem.Config
)

// Workloads.
type (
	// Saturator keeps a fixed queue depth of IO outstanding (fio-style).
	Saturator = workload.Saturator
	// SaturatorConfig configures a Saturator.
	SaturatorConfig = workload.SaturatorConfig
	// LoadShedder is a latency-target online-service workload.
	LoadShedder = workload.LoadShedder
	// LoadShedderConfig configures a LoadShedder.
	LoadShedderConfig = workload.LoadShedderConfig
	// ThinkTime is a serial reader with per-IO think time.
	ThinkTime = workload.ThinkTime
	// ThinkTimeConfig configures a ThinkTime workload.
	ThinkTimeConfig = workload.ThinkTimeConfig
	// Leaker allocates memory without bound.
	Leaker = workload.Leaker
	// Stress continuously touches a fixed working set.
	Stress = workload.Stress
	// Logger appends through the page cache and fsyncs periodically.
	Logger = workload.Logger
	// Pattern selects random or sequential access.
	Pattern = workload.Pattern
	// TraceOp is one record of an IO trace.
	TraceOp = workload.TraceOp
	// TraceReplayer replays a recorded trace.
	TraceReplayer = workload.TraceReplayer
	// RCB is ResourceControlBench, the latency-sensitive service proxy.
	RCB = rcb.Bench
	// RCBConfig configures ResourceControlBench.
	RCBConfig = rcb.Config
)

// Access patterns.
const (
	RandomAccess     = workload.Random
	SequentialAccess = workload.Sequential
)

// Workload constructors.
var (
	NewSaturator   = workload.NewSaturator
	NewLoadShedder = workload.NewLoadShedder
	NewThinkTime   = workload.NewThinkTime
	NewLeaker      = workload.NewLeaker
	NewStress      = workload.NewStress
	NewLogger      = workload.NewLogger
	NewRCB         = rcb.New
	// ParseTrace reads a whitespace-separated IO trace.
	ParseTrace = workload.ParseTrace
	// NewTraceReplayer replays a parsed trace against a queue.
	NewTraceReplayer = workload.NewTraceReplayer
)

// Telemetry: the blktrace-equivalent event recorder (enable with
// MachineConfig.Trace; the recorder is Machine.Trace) and PSI-style IO
// pressure accounting (MachineConfig.Pressure / Machine.Pressure).
type (
	// TraceRecorder captures bio life-cycle and controller events into a
	// bounded ring with zero steady-state allocations.
	TraceRecorder = trace.Recorder
	// Trace is a captured or loaded event stream.
	Trace = trace.Trace
	// TraceEvent is one telemetry record.
	TraceEvent = trace.Event
	// TraceAnalysis is the result of replaying a trace through the
	// analysis passes (latency percentiles, throttle attribution,
	// pressure reconstruction).
	TraceAnalysis = trace.Analysis
	// IOPressure is the live per-cgroup io.pressure collector.
	IOPressure = metrics.IOPressure
	// PSIAverages is one io.pressure line (some or full).
	PSIAverages = metrics.PSIAverages
)

// Metrics: the cross-layer registry (enable with MachineConfig.Metrics;
// the registry is Machine.Registry, the sampler Machine.Sampler).
type (
	// MetricsRegistry holds pull-based metric families from every layer.
	MetricsRegistry = registry.Registry
	// MetricsRegistrar is implemented by components that can contribute
	// metrics to a registry.
	MetricsRegistrar = registry.Registrar
	// MetricLabel is one key=value metric label.
	MetricLabel = registry.Label
	// Sampler scrapes a registry on the virtual clock into bounded
	// time-series.
	Sampler = metrics.Sampler
	// SamplerConfig tunes the scrape interval and series capacity.
	SamplerConfig = metrics.SamplerConfig
	// MetricsExport is the versioned JSON export document.
	MetricsExport = metrics.JSONExport
)

// Metrics constructors and helpers.
var (
	// NewMetricsRegistry builds an empty registry.
	NewMetricsRegistry = registry.New
	// NewSampler builds a sampler over a registry.
	NewSampler = metrics.NewSampler
	// ValidateMetricsExport checks a decoded JSON export document.
	ValidateMetricsExport = metrics.ValidateExport
)

// Telemetry constructors and passes.
var (
	// NewTraceRecorder builds a standalone recorder; attach it to a queue
	// with Attach and to an IOCost controller with SetEventSink.
	NewTraceRecorder = trace.NewRecorder
	// WriteTrace and ReadTrace handle the compact binary trace format.
	WriteTrace = trace.WriteFile
	ReadTrace  = trace.ReadFile
	// AnalyzeTrace runs the analysis passes over a trace.
	AnalyzeTrace = trace.Analyze
	// DiffTraces compares two traces event-by-event.
	DiffTraces = trace.Diff
	// WorkloadOpsFromTrace converts a trace's submits into a replayable
	// workload trace.
	WorkloadOpsFromTrace = trace.WorkloadOps
	// FormatWorkloadTrace writes workload trace ops in the text format
	// ParseTrace reads.
	FormatWorkloadTrace = workload.FormatTrace
	// NewIOPressure builds a standalone pressure collector.
	NewIOPressure = metrics.NewIOPressure
)

// Profiling (the offline device-modeling step of §3.2).
type (
	// ProfileResult is a profiling run's measurements and derived model.
	ProfileResult = profiler.Result
	// ProfileOptions tunes a profiling run.
	ProfileOptions = profiler.Options
	// DeviceFactory builds the device under test.
	DeviceFactory = profiler.DeviceFactory
)

// Profile measures a device and derives its linear cost model.
var Profile = profiler.Profile

// QoS tuning (§3.4): sweep pinned vrates over the two
// ResourceControlBench scenarios to find the vrate band worth allowing.
type (
	// TuneResult is a tuning sweep's outcome.
	TuneResult = rcb.TuneResult
	// TuneOptions parameterizes the sweep.
	TuneOptions = rcb.TuneOptions
)

// Tune runs the §3.4 QoS tuning procedure for an SSD spec.
var Tune = rcb.Tune

// Closed-loop QoS auto-tuning (internal/tune): race candidate configs as
// forked deterministic simulation branches against a pluggable objective.
// The recommendation is a pure function of (seed, scenario, objective).
type (
	// AutoTuneScenario is one tuning situation: a device plus the
	// protected workload's latency contract.
	AutoTuneScenario = tune.Scenario
	// AutoTuneOptions parameterizes a search.
	AutoTuneOptions = tune.Options
	// AutoTuneResult is a completed search.
	AutoTuneResult = tune.Result
	// AutoTuneReport is the versioned JSON form iocost-tune emits.
	AutoTuneReport = tune.Report
	// AutoTuneObjective scores a candidate's measurement.
	AutoTuneObjective = tune.Objective
	// TunePolicy configures the re-tune daemon's triggers.
	TunePolicy = tune.Policy
	// TuneDaemon watches live registry metrics and re-tunes on breach.
	TuneDaemon = tune.Daemon
)

// AutoTune searches QoS configs for a scenario; AutoTuneScenarios lists the
// built-in scenarios and NewTuneDaemon builds the closed-loop watcher.
var (
	AutoTune          = tune.Search
	AutoTuneScenarios = tune.Scenarios
	NewTuneDaemon     = tune.NewDaemon
)

// Device is a simulated block device.
type Device = device.Device

// Device constructors for profiling and custom topologies.
var (
	NewSSDDevice    = device.NewSSD
	NewHDDDevice    = device.NewHDD
	NewRemoteDevice = device.NewRemote
)

// Stacked coordination-service simulation (§4.6).
type (
	// ZKCluster is the ZooKeeper-like stacked deployment.
	ZKCluster = zk.Cluster
	// ZKConfig parameterizes it.
	ZKConfig = zk.Config
	// ZKViolation is one SLO-violation window.
	ZKViolation = zk.Violation
)

// NewZKCluster builds the stacked deployment over per-machine block queues.
var NewZKCluster = zk.NewCluster

// Incident observability (internal/span, internal/flight, internal/slo):
// causal span reconstruction, the always-on flight recorder with
// dump-on-trigger incident bundles, and virtual-time SLO burn-rate alerts.
type (
	// SpanSet is the reconstructed per-bio span trees of one trace.
	SpanSet = span.Set
	// Span is one bio's life decomposed into exclusive phases.
	Span = span.Span
	// BlameReport is the per-cgroup p99 latency decomposition.
	BlameReport = span.Report
	// FlightConfig configures the always-on black-box recorder.
	FlightConfig = flight.Config
	// FlightRecorder is a live flight recorder on one machine.
	FlightRecorder = flight.Recorder
	// IncidentBundle is one frozen incident: window trace + registry
	// scrape + span blame + alert history.
	IncidentBundle = flight.Bundle
	// SLORule is one multi-window burn-rate alert rule.
	SLORule = slo.Rule
	// SLOEvaluator runs burn-rate rules on the virtual clock.
	SLOEvaluator = slo.Evaluator
	// SLORegistrySource feeds an evaluator from a machine registry
	// (errors + timeouts over completions).
	SLORegistrySource = slo.RegistrySource
	// SLOAlert is one rule state transition.
	SLOAlert = slo.Alert
)

// Span/flight/SLO entry points: BuildSpans reconstructs span trees from a
// trace, WritePerfetto renders them as a Perfetto/Chrome timeline,
// NewFlightRecorder builds a standalone black box, ReadIncidentBundle
// loads and validates a bundle file, and DefaultSLORules is the standard
// fast-burn/slow-burn pair.
var (
	BuildSpans         = span.Build
	WritePerfetto      = span.WritePerfetto
	NewFlightRecorder  = flight.New
	ReadIncidentBundle = flight.ReadBundle
	IncidentFromTrace  = flight.BundleFromTrace
	NewSLOEvaluator    = slo.NewEvaluator
	DefaultSLORules    = slo.DefaultRules
)

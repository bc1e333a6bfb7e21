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
// This package re-exports only what the examples and the iocost-sim and
// iocost-monitor commands use. Everything the paper's evaluation measures
// is available under the experiment harness (the iocost-bench command and
// the bench suite).
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
	"github.com/iocost-sim/iocost/internal/sim"
	"github.com/iocost-sim/iocost/internal/slo"
	"github.com/iocost-sim/iocost/internal/trace"
	"github.com/iocost-sim/iocost/internal/workload"
	"github.com/iocost-sim/iocost/internal/zk"
)

// Simulated time. Time is in nanoseconds on the virtual clock.
type Time = sim.Time

// Common durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Engine is the discrete-event simulation engine.
type Engine = sim.Engine

// NewEngine returns a fresh simulation engine, for multi-machine topologies
// that share one virtual clock via MachineConfig.Engine.
func NewEngine() *Engine { return sim.New() }

// ControllerIOCost selects the IOCost controller in MachineConfig.Controller;
// ControllerNames lists the others.
const ControllerIOCost = exp.KindIOCost

// Machine is a fully assembled simulated host. See exp.Machine for fields:
// Q (the block queue), Workload/System/HostCritical (the Figure 1 cgroup
// slices), IOCost (the controller, when selected) and Mem (the optional
// memory pool).
type Machine = exp.Machine

// MachineConfig configures NewMachine.
type MachineConfig = exp.MachineConfig

// DeviceChoice selects the device model; construct with SSD, Remote or
// ParseDevice.
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
	// RemoteSpec parameterizes a cloud volume.
	RemoteSpec = device.RemoteSpec
	// Device is a simulated block device.
	Device = device.Device
)

// Stock device profiles used throughout the paper's evaluation.
var (
	OlderGenSSD   = device.OlderGenSSD
	NewerGenSSD   = device.NewerGenSSD
	EnterpriseSSD = device.EnterpriseSSD
	EBSgp3        = device.EBSgp3
	EBSio2        = device.EBSio2
	GCPBalanced   = device.GCPBalanced
	GCPSSD        = device.GCPSSD
)

// NewSSDDevice builds a flash device for profiling and custom topologies.
var NewSSDDevice = device.NewSSD

// The IOCost cost model.
type (
	// LinearParams is the six-parameter linear cost model configuration
	// (Figure 6).
	LinearParams = core.LinearParams
	// LinearModel is the compiled linear cost model.
	LinearModel = core.LinearModel
)

// MustLinearModel compiles linear cost-model parameters and panics on error.
func MustLinearModel(p LinearParams) *LinearModel { return core.MustLinearModel(p) }

// CGroup is one node of the weight hierarchy.
type CGroup = cgroup.Node

// Queue is the per-device block layer.
type Queue = blk.Queue

// Read is the read request direction.
const Read = bio.Read

// FaultPlan is a declarative fault schedule: episodes of errors, stalls,
// slowdowns, GC storms and IOPS-cap collapses on the virtual clock. Enable
// it with MachineConfig.Faults; the injector is Machine.Fault.
type FaultPlan = fault.Plan

// ParseFaultPlan parses a preset name ("storm", "flaky", ...) or a
// kind:at=...,dur=... episode list.
var ParseFaultPlan = fault.ParsePlan

// MemConfig parameterizes the simulated memory subsystem. Used as
// MachineConfig.Mem.
type MemConfig = mem.Config

// Workloads.
type (
	// Saturator keeps a fixed queue depth of IO outstanding (fio-style).
	Saturator = workload.Saturator
	// SaturatorConfig configures a Saturator.
	SaturatorConfig = workload.SaturatorConfig
	// ThinkTimeConfig configures a serial reader with per-IO think time.
	ThinkTimeConfig = workload.ThinkTimeConfig
	// TraceReplayer replays a recorded trace.
	TraceReplayer = workload.TraceReplayer
	// RCBConfig configures ResourceControlBench, the latency-sensitive
	// service proxy.
	RCBConfig = rcb.Config
)

// Access patterns.
const (
	RandomAccess     = workload.Random
	SequentialAccess = workload.Sequential
)

// Workload constructors.
var (
	NewSaturator = workload.NewSaturator
	NewThinkTime = workload.NewThinkTime
	NewLeaker    = workload.NewLeaker
	NewRCB       = rcb.New
	// ParseTrace reads a whitespace-separated IO trace.
	ParseTrace = workload.ParseTrace
	// NewTraceReplayer replays a parsed trace against a queue.
	NewTraceReplayer = workload.NewTraceReplayer
)

// WriteTrace writes a captured blktrace-equivalent event stream (enable with
// MachineConfig.Trace; the recorder is Machine.Trace) in the compact binary
// trace format.
var WriteTrace = trace.WriteFile

// MetricsExport is the versioned JSON export document of the cross-layer
// metrics registry (enable with MachineConfig.Metrics).
type MetricsExport = metrics.JSONExport

// ValidateMetricsExport checks a decoded JSON export document.
var ValidateMetricsExport = metrics.ValidateExport

// ProfileOptions tunes a profiling run, the offline device-modeling step
// of §3.2.
type ProfileOptions = profiler.Options

// Profile measures a device and derives its linear cost model.
var Profile = profiler.Profile

// TuneOptions parameterizes the §3.4 QoS tuning sweep: pinned vrates over
// the two ResourceControlBench scenarios, to find the vrate band worth
// allowing.
type TuneOptions = rcb.TuneOptions

// Tune runs the §3.4 QoS tuning procedure for an SSD spec.
var Tune = rcb.Tune

// ZKConfig parameterizes the stacked coordination-service simulation
// (§4.6), a ZooKeeper-like deployment.
type ZKConfig = zk.Config

// NewZKCluster builds the stacked deployment over per-machine block queues.
var NewZKCluster = zk.NewCluster

// Incident observability: the always-on flight recorder and virtual-time
// SLO burn-rate alerts.
type (
	// FlightConfig configures the always-on black-box recorder.
	FlightConfig = flight.Config
	// SLOEvaluator runs burn-rate rules on the virtual clock.
	SLOEvaluator = slo.Evaluator
	// SLORegistrySource feeds an evaluator from a machine registry
	// (errors + timeouts over completions).
	SLORegistrySource = slo.RegistrySource
)

// NewSLOEvaluator builds an evaluator; DefaultSLORules is the standard
// fast-burn/slow-burn pair.
var (
	NewSLOEvaluator = slo.NewEvaluator
	DefaultSLORules = slo.DefaultRules
)

//! # pic-simnet — simulated cluster substrate
//!
//! The PIC paper (CLUSTER 2012) evaluates on three physical Hadoop clusters:
//! a 6-node research testbed, a 64-node production cluster and 256 Amazon
//! Elastic MapReduce instances. This crate is the stand-in for that hardware.
//!
//! It provides:
//!
//! * [`ClusterSpec`] — a declarative description of a cluster (nodes, cores,
//!   racks, task slots, NIC / rack-uplink / bisection bandwidths, disk
//!   bandwidth, startup overheads) with presets mirroring the paper's three
//!   testbeds ([`ClusterSpec::small`], [`ClusterSpec::medium`],
//!   [`ClusterSpec::large`]).
//! * [`SimClock`] — a simulated wall clock in seconds.
//! * [`TrafficLedger`] — a thread-safe byte ledger split by traffic class
//!   (shuffle within a node / within a rack / across the bisection, DFS
//!   reads and writes, model updates, merge traffic). The paper's key claim
//!   is about exactly these byte counts (its Table II), so they are tracked
//!   exactly rather than modelled.
//! * [`transfer`] — analytic transfer-time models (point-to-point,
//!   all-to-all shuffle, replication pipeline, broadcast/gather) used to
//!   charge simulated time for the bytes in the ledger.
//! * [`SlotScheduler`] — a discrete-event simulator that places tasks with
//!   measured durations onto the cluster's map/reduce slots in waves, with
//!   data-locality preference, and reports the makespan.
//! * [`chaos`] — deterministic, seeded fault injection ([`FaultPlan`] /
//!   [`ChaosInjector`]): node crashes, spot-preemption waves and elastic
//!   resize, each emitted as trace instants so recovery cost is
//!   attributable per phase.
//! * [`timeline`] — time-resolved utilization derived from a trace:
//!   per-traffic-class byte series that reconcile exactly with the
//!   ledger, and slot-pool occupancy against [`ClusterSpec`] slot counts
//!   ([`UtilizationReport`]).
//! * [`hostprof`] — a host-side (wall-clock) stage profiler: RAII scope
//!   timers over the engine/DFS/event-queue/driver hot paths with a
//!   zero-cost disabled path, feeding the `host_profile` section of
//!   `BENCH_pic.json` and `pic diff` host-stage attribution
//!   ([`HostProfile`]).
//! * [`sweep`] — the charge-sweep kernel every trace derivation shares:
//!   `traffic` instants → charges, bytes and busy seconds onto a bucket
//!   grid, span and lane group names.
//! * [`monitor`] — run monitoring: [`Monitor::replay`] turns a recorded
//!   trace into sliding-window series on the simulated clock, evaluates
//!   the closed [`monitor::Rule`] catalog, and keeps an incident log
//!   whose recovery-byte series reconciles exactly with the
//!   [`TrafficLedger`] (the `pic watch` subcommand and the BENCH
//!   `monitor` section).
//! * [`whatif`] — counterfactual projection over recorded traces:
//!   declarative scenario edits (drop stragglers, instant merge)
//!   replayed as time warps that delete recorded windows, ranked into a
//!   [`SensitivityReport`] bottleneck table (the `pic explain`
//!   subcommand).
//! * [`tenancy`] — multi-tenant job streams: a cluster-level scheduler
//!   ([`ClusterScheduler`]) over the 1k-node preset with FIFO admission,
//!   weighted fair node grants and best-effort preemption, reported as
//!   per-job time-to-quality percentiles ([`TenancyReport`]).
//!
//! Real computation happens elsewhere (the `pic-mapreduce` engine runs map
//! and reduce functions for real on a rayon pool); this crate only answers
//! "how long would that have taken on the paper's cluster, and how many
//! bytes crossed which link".

#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub mod event;
pub mod hostprof;
pub mod monitor;
pub mod report;
pub mod scheduler;
pub mod sweep;
pub mod tenancy;
pub mod timeline;
pub mod topology;
pub mod trace;
pub mod traffic;
pub mod transfer;
pub mod whatif;

pub use chaos::{ChaosInjector, FaultEvent, FaultPlan};
pub use clock::SimClock;
pub use hostprof::{HostProfile, Stage, StageProfile};
pub use monitor::{Incident, Monitor, MonitorConfig, MonitorReport, Rule};
pub use report::{
    IterationRollup, PerfReport, QualityPoint, QualityReport, TenancyReport, TenancyRow,
};
pub use scheduler::{ScheduleOutcome, SlotScheduler, TaskLaunch, TaskSpec};
pub use tenancy::{
    ClusterScheduler, IterKind, IterationDemand, JobArrival, JobProfile, TenancyJob,
};
pub use timeline::{SlotSeries, UtilizationReport};
pub use topology::{ClusterSpec, NodeId, RackId};
pub use trace::{CounterTrack, Payload, Trace, Tracer};
pub use traffic::{TrafficClass, TrafficLedger, TrafficSnapshot};
pub use whatif::{Edit, Projection, Scenario, SensitivityReport, TimeWarp, WhatIf};

//! # vmprov-cloudsim — cloud data-center simulation substrate
//!
//! The discrete-event model of the paper's evaluation environment
//! (built on `vmprov-des`, filling the role CloudSim plays in §V):
//!
//! * [`host`] — 1000-host data center, least-loaded VM placement;
//! * [`config`] — scenario configuration ([`SimConfig::paper_web`],
//!   [`SimConfig::paper_scientific`]);
//! * [`sim`] — the event loop: admission control, round-robin dispatch,
//!   bounded FIFO instance queues, VM boot/drain/destroy lifecycle,
//!   monitoring, and policy evaluation;
//! * [`metrics`] — the §V-A output metrics (response time, rejections,
//!   QoS violations, VM hours, utilization rate, instance extrema);
//! * [`probe`] — the structured observability layer: a [`Probe`] sees
//!   every simulation event (JSONL traces, time series, counters);
//! * [`builder`] — the run API: [`SimBuilder`] composes a scenario,
//!   optionally attaches a probe, and runs it.
//!
//! Entry point: [`SimBuilder`].

#![warn(missing_docs)]

pub mod arrivals;
pub mod builder;
pub mod config;
pub mod host;
pub mod metrics;
pub mod probe;
pub mod sim;

pub use arrivals::ArrivalStream;
pub use builder::SimBuilder;
pub use config::SimConfig;
pub use host::{HostPool, Resources, PAPER_HOST, PAPER_VM};
pub use metrics::{MetricsOptions, RunMetrics, RunSummary};
pub use probe::{
    NullProbe, PoolSample, Probe, RejectReason, RequestClass, TimeSample, TimeSeries,
    TimeSeriesProbe, TraceProbe,
};
pub use sim::{CloudSim, Event, RunGroup, SimScratch};

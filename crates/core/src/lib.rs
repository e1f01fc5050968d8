//! # vmprov-core — adaptive QoS-driven VM provisioning
//!
//! The paper's contribution (§IV): an adaptive provisioning mechanism
//! built from three cooperating components,
//!
//! * a **workload analyzer** predicting request arrival rates
//!   ([`analyzer`]),
//! * a **load predictor and performance modeler** running Algorithm 1
//!   over analytic queueing models ([`modeler`], [`backend`]),
//! * an **application provisioner** front-end: admission control and
//!   request dispatch ([`dispatch`]) plus the policy layer that the
//!   simulated data center consults ([`policy`]),
//!
//! together with the QoS vocabulary ([`qos`]).
//!
//! The crate is pure decision logic — no simulation state — so the same
//! policies drive the `vmprov-cloudsim` simulator and could drive a real
//! control plane.

#![warn(missing_docs)]

pub mod analyzer;
pub mod backend;
pub mod dispatch;
pub mod estimator;
pub mod modeler;
pub mod policy;
pub mod qos;

pub use analyzer::{ScheduleAnalyzer, WorkloadAnalyzer};
pub use backend::AnalyticBackend;
pub use dispatch::{
    AnyDispatcher, Dispatcher, InstancePool, InstanceView, LeastOutstanding, RandomDispatch,
    RoundRobin,
};
pub use estimator::{EstimatorAnalyzer, EwmaRate, RateEstimator, SlidingWindowMle};
pub use modeler::{ModelerOptions, PerformanceModeler, SizingCache, SizingDecision, SizingInputs};
pub use policy::{AdaptivePolicy, MonitorReport, PoolStatus, ProvisioningPolicy, StaticPolicy};
pub use qos::QosTargets;

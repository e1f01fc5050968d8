//! # vmprov-des — discrete-event simulation kernel
//!
//! The substrate on which the cloud model is built (the role CloudSim
//! plays in the original paper). It provides:
//!
//! * a simulation clock and future-event list with deterministic FIFO
//!   tie-breaking ([`SimTime`], [`EventQueue`]);
//! * an engine driving a user-defined [`World`] ([`Engine`]), which
//!   also hands pre-timed events to the world without queueing them,
//!   after every queued event at their instant
//!   ([`Engine::dispatch_run`]);
//! * labelled, reproducible random streams ([`RngFactory`], [`SimRng`]);
//! * the probability distributions used by the workload models
//!   ([`dist`]);
//! * constant-space streaming statistics ([`stats`]);
//! * the one parallel executor, a width that runs a batch of jobs on
//!   scoped threads ([`pool::WorkerPool`]).
//!
//! ## Example: an M/M/1 queue in ~40 lines
//!
//! ```
//! use vmprov_des::dist::Exponential;
//! use vmprov_des::{Engine, RngFactory, Scheduler, SimRng, SimTime, World};
//!
//! enum Ev { Arrival, Departure }
//!
//! struct Mm1 {
//!     in_system: u32,
//!     served: u64,
//!     arrivals: Exponential,
//!     service: Exponential,
//!     rng: SimRng,
//! }
//!
//! impl World for Mm1 {
//!     type Event = Ev;
//!     fn handle(&mut self, _now: SimTime, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
//!         match ev {
//!             Ev::Arrival => {
//!                 self.in_system += 1;
//!                 if self.in_system == 1 {
//!                     let s = self.service.sample(&mut self.rng);
//!                     sched.after(s, Ev::Departure);
//!                 }
//!                 let a = self.arrivals.sample(&mut self.rng);
//!                 sched.after(a, Ev::Arrival);
//!             }
//!             Ev::Departure => {
//!                 self.in_system -= 1;
//!                 self.served += 1;
//!                 if self.in_system > 0 {
//!                     let s = self.service.sample(&mut self.rng);
//!                     sched.after(s, Ev::Departure);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let world = Mm1 {
//!     in_system: 0,
//!     served: 0,
//!     arrivals: Exponential::new(0.8),
//!     service: Exponential::new(1.0),
//!     rng: RngFactory::new(1).stream("mm1"),
//! };
//! let mut engine = Engine::new(world);
//! engine.schedule(SimTime::ZERO, Ev::Arrival);
//! engine.run_until(SimTime::from_secs(10_000.0));
//! assert!(engine.world().served > 7_000);
//! ```

#![warn(missing_docs)]

pub mod dist;
mod engine;
mod event;
mod hash;
pub mod pool;
mod rng;
pub mod special;
pub mod stats;
mod time;

pub use engine::{Engine, Scheduler, World};
pub use event::{EventHandle, EventQueue, FelBackend};
pub use hash::{stable_hash64, StableHasher};
pub use rng::{RngFactory, SimRng};
pub use time::{SimTime, DAY, HOUR, MINUTE, WEEK};

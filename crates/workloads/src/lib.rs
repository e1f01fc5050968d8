//! # vmprov-workloads — production workload models
//!
//! The two workloads of the paper's evaluation (§V-B), implemented as
//! generative arrival processes over the `vmprov-des` distributions:
//!
//! * [`WebWorkload`] — the simplified Wikipedia-trace model: per-weekday
//!   min/max rates (Table II), sinusoidal diurnal shape (Eq. 2), 60 s
//!   arrival intervals with 5% normal noise, 100 ms requests;
//! * [`ScientificWorkload`] — the Iosup et al. Bag-of-Tasks model:
//!   Weibull interarrivals in peak hours, Weibull job counts per 30-min
//!   window off-peak, Weibull task batch sizes, 300 s tasks.
//!
//! Plus [`synthetic`] generators (Poisson, step, flash crowd) used by
//! tests and the robustness ablations, and the [`dataset`]
//! seam for streaming trace replay ([`DatasetReader`], [`StreamReplay`],
//! the synthetic trace generator).

#![warn(missing_docs)]

pub mod dataset;
pub mod scientific;
pub mod synthetic;
pub mod trace;
pub mod traits;
pub mod web;

pub use dataset::{
    generate_piecewise_csv, generate_poisson_csv, trace_file_opens, CsvReader, DatasetError,
    DatasetReader, GeneratedTrace, MemoryReader, Reach, ScanConsumer, ScanStats, SharedTraceScan,
    StepBound, StreamReplay, TraceSpec, DEFAULT_CHUNK, MAX_ROW_COUNT, SCAN_DEPTH,
};
pub use scientific::{scientific_service_model, ScientificConfig, ScientificWorkload};
pub use trace::Trace;
pub use traits::{ArrivalBatch, ArrivalProcess, ServiceModel};
pub use web::{eq2_rate, web_service_model, WebConfig, WebWorkload, WEEKDAY_NAMES, WEEKDAY_RATES};

use vmprov_des::{SimRng, SimTime};

/// The production workload models as a closed enum.
///
/// The scenario decoder picks the model at runtime; a two-variant
/// `match` (instead of `Box<dyn ArrivalProcess>`) keeps the per-batch
/// call devirtualized and inlinable in a monomorphized simulation while
/// still being a single concrete type the decoder can return.
#[derive(Debug, Clone)]
pub enum AnyWorkload {
    /// The web workload (§V-B1).
    Web(WebWorkload),
    /// The scientific Bag-of-Tasks workload (§V-B2).
    Scientific(ScientificWorkload),
    /// Streamed replay of a recorded or on-disk trace ([`dataset`]).
    Replay(StreamReplay),
}

impl From<WebWorkload> for AnyWorkload {
    fn from(w: WebWorkload) -> Self {
        AnyWorkload::Web(w)
    }
}

impl From<ScientificWorkload> for AnyWorkload {
    fn from(w: ScientificWorkload) -> Self {
        AnyWorkload::Scientific(w)
    }
}

impl From<StreamReplay> for AnyWorkload {
    fn from(w: StreamReplay) -> Self {
        AnyWorkload::Replay(w)
    }
}

impl ArrivalProcess for AnyWorkload {
    #[inline]
    fn next_batch(&mut self, rng: &mut SimRng) -> Option<ArrivalBatch> {
        match self {
            AnyWorkload::Web(w) => w.next_batch(rng),
            AnyWorkload::Scientific(w) => w.next_batch(rng),
            AnyWorkload::Replay(w) => w.next_batch(rng),
        }
    }

    #[inline]
    fn next_batch_run(
        &mut self,
        rng: &mut SimRng,
        max: usize,
        out: &mut Vec<ArrivalBatch>,
    ) -> usize {
        match self {
            AnyWorkload::Web(w) => w.next_batch_run(rng, max, out),
            AnyWorkload::Scientific(w) => w.next_batch_run(rng, max, out),
            AnyWorkload::Replay(w) => w.next_batch_run(rng, max, out),
        }
    }

    fn model_rate(&self, t: SimTime) -> f64 {
        match self {
            AnyWorkload::Web(w) => w.model_rate(t),
            AnyWorkload::Scientific(w) => w.model_rate(t),
            AnyWorkload::Replay(w) => w.model_rate(t),
        }
    }

    fn horizon(&self) -> SimTime {
        match self {
            AnyWorkload::Web(w) => w.horizon(),
            AnyWorkload::Scientific(w) => w.horizon(),
            AnyWorkload::Replay(w) => w.horizon(),
        }
    }
}

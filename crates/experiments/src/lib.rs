//! # vmprov-experiments — the evaluation harness
//!
//! Reproduces every table and figure of the paper's §V:
//!
//! * [`scenario`] — the two evaluation scenarios (web, scientific) with
//!   every policy variant;
//! * [`runner`] — single runs, arrival groups and cross-replication
//!   aggregation;
//! * [`campaign`] — every figure's runs as one cache-first batch on the
//!   scoped executor of [`pool`];
//! * [`figures`] — one function per table/figure;
//! * [`report`] — ASCII tables, CSV, JSON.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! cargo run --release -p vmprov-experiments --bin repro -- all --mode quick
//! ```

#![warn(missing_docs)]

pub mod ablations;
pub mod cache;
pub mod campaign;
pub mod figures;
pub mod grid;
pub mod pool;
pub mod replay;
pub mod report;
pub mod runner;
pub mod scenario;

pub use ablations::{
    ablation_table, analyzer_ablation, backend_ablation, boot_delay_ablation, dispatch_ablation,
    AblationRow,
};
pub use cache::{run_key, Lookup, RunCache};
pub use campaign::{Campaign, CampaignResult, CampaignStats, FigureHandle};
pub use figures::{fig3_series, fig4_series, fig5_spec, fig6_spec, table2, RunMode};
pub use grid::{grid_table, GridCell, GridOutcome, GridStats, ReplayGrid, StatsMode, MAX_WAVE};
pub use replay::{peak_rss_kb, qos_verdict, replay_once, QosVerdict, ReplaySource};
pub use runner::{
    builder_for, run_group_warm, run_once, trace_dt, traced_run, Replicated, TracedRun,
};
pub use scenario::{
    fig5_scenarios, fig6_scenarios, AnalyzerSpec, ArrivalKey, DispatchSpec, PolicySpec, Scenario,
    WorkloadKind, DEFAULT_EWMA_ALPHA, DEFAULT_MLE_WINDOW, ESTIMATOR_HEADROOM, SCI_STATIC_SIZES,
    WEB_STATIC_SIZES,
};

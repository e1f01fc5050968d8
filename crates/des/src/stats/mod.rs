//! Streaming statistics: constant-space accumulators sized for runs that
//! observe hundreds of millions of samples.

mod ci;
mod histogram;
mod timeweighted;
mod welford;

pub use ci::{confidence_interval, Interval, Level};
pub use histogram::LogHistogram;
pub use timeweighted::TimeWeighted;
pub use welford::{OnlineStats, TwoLaneStats};

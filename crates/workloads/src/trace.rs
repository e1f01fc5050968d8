//! Recorded arrival traces: capture any [`ArrivalProcess`] into a
//! concrete list of batches and persist it as CSV.
//!
//! Recording enables exact workload sharing between runs that must see
//! identical traffic regardless of how many random draws each policy
//! consumes. Everything *read back* — this crate's own CSV, real
//! production traces, future dataset formats — enters through the
//! [`crate::dataset`] seam instead ([`CsvReader`](crate::dataset::CsvReader)
//! and friends); `Trace` is the in-memory recording side only, and
//! [`Trace::replay`] routes through the same [`StreamReplay`] plumbing
//! the on-disk readers use.

use crate::dataset::{row_count_error, DatasetError, StreamReplay, MAX_ROW_COUNT};
use crate::traits::{ArrivalBatch, ArrivalProcess};
use std::io::{self, Write};
use vmprov_des::{SimRng, SimTime};

/// A recorded arrival trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    batches: Vec<ArrivalBatch>,
}

impl Trace {
    /// Creates a trace from explicit batches, validating that they are
    /// time-ordered with finite, non-negative spreads, that no count
    /// exceeds [`MAX_ROW_COUNT`] and that the counts sum to at most
    /// `u64::MAX`. The error's `line` is the 1-based index of the
    /// offending batch — the same contract as the file readers, so
    /// callers ingesting external data report consistent positions.
    pub fn new(batches: Vec<ArrivalBatch>) -> Result<Self, DatasetError> {
        for (i, w) in batches.windows(2).enumerate() {
            if w[1].time < w[0].time {
                return Err(DatasetError::at(
                    i as u64 + 2,
                    format!(
                        "out-of-order timestamp {} (previous batch at {})",
                        w[1].time.as_secs(),
                        w[0].time.as_secs()
                    ),
                ));
            }
        }
        let mut total = 0u64;
        for (i, b) in batches.iter().enumerate() {
            if !(b.spread >= 0.0 && b.spread.is_finite()) {
                return Err(DatasetError::at(
                    i as u64 + 1,
                    format!("non-finite or negative spread {}", b.spread),
                ));
            }
            if b.count > MAX_ROW_COUNT {
                return Err(row_count_error(i as u64 + 1, b.count));
            }
            total = total.checked_add(b.count).ok_or_else(|| {
                DatasetError::at(
                    i as u64 + 1,
                    format!("count {} overflows the trace's request total", b.count),
                )
            })?;
        }
        Ok(Trace { batches })
    }

    /// Records `process` to exhaustion using `rng`. Infallible: a
    /// well-behaved process emits ordered batches by contract.
    pub fn record(process: &mut dyn ArrivalProcess, rng: &mut SimRng) -> Self {
        let mut batches = Vec::new();
        while let Some(b) = process.next_batch(rng) {
            batches.push(b);
        }
        Trace { batches }
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether the trace holds no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total requests across all batches.
    pub fn total_requests(&self) -> u64 {
        self.batches.iter().map(|b| b.count).sum()
    }

    /// Time of the last batch (zero for an empty trace).
    pub fn end_time(&self) -> SimTime {
        self.batches.last().map_or(SimTime::ZERO, |b| b.time)
    }

    /// The batches.
    pub fn batches(&self) -> &[ArrivalBatch] {
        &self.batches
    }

    /// Writes the trace as `time,count,spread` CSV — the format
    /// [`CsvReader`](crate::dataset::CsvReader) reads back.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "time,count,spread")?;
        for b in &self.batches {
            writeln!(w, "{},{},{}", b.time.as_secs(), b.count, b.spread)?;
        }
        Ok(())
    }

    /// Turns the trace into a replayable arrival process, streaming
    /// through the [`crate::dataset`] seam (consumes no randomness).
    pub fn replay(self) -> StreamReplay {
        StreamReplay::from_trace(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::PoissonProcess;
    use vmprov_des::RngFactory;

    #[test]
    fn record_and_replay_are_identical() {
        let mut rng = RngFactory::new(5).stream("trace");
        let mut p = PoissonProcess::new(10.0, SimTime::from_secs(100.0));
        let trace = Trace::record(&mut p, &mut rng);
        assert!(trace.len() > 500);
        assert_eq!(trace.total_requests(), trace.len() as u64); // 1/batch
        let mut replay = trace.clone().replay();
        let mut other_rng = RngFactory::new(999).stream("unused");
        for want in trace.batches() {
            let got = replay.next_batch(&mut other_rng).unwrap();
            assert_eq!(&got, want);
        }
        assert!(replay.next_batch(&mut other_rng).is_none());
    }

    #[test]
    fn replay_reports_the_mean_rate_and_horizon() {
        let batches: Vec<ArrivalBatch> = (0..=60)
            .map(|i| ArrivalBatch {
                time: SimTime::from_secs(i as f64),
                count: 2,
                spread: 0.0,
            })
            .collect();
        let replay = Trace::new(batches).unwrap().replay();
        assert_eq!(replay.horizon().as_secs(), 60.0);
        // 122 requests over 60 s.
        let r = replay.model_rate(SimTime::from_secs(30.0));
        assert!((r - 122.0 / 60.0).abs() < 1e-12, "rate {r}");
    }

    #[test]
    fn constructor_rejects_unordered_with_batch_number() {
        let err = Trace::new(vec![
            ArrivalBatch {
                time: SimTime::from_secs(10.0),
                count: 1,
                spread: 0.0,
            },
            ArrivalBatch {
                time: SimTime::from_secs(5.0),
                count: 1,
                spread: 0.0,
            },
        ])
        .unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("out-of-order"), "{err}");
    }

    #[test]
    fn constructor_rejects_a_count_past_the_row_bound() {
        let batch = |count| ArrivalBatch {
            time: SimTime::from_secs(0.0),
            count,
            spread: 0.0,
        };
        let at_bound = Trace::new(vec![batch(MAX_ROW_COUNT), batch(1)]).unwrap();
        assert_eq!(at_bound.total_requests(), MAX_ROW_COUNT + 1);
        let err = Trace::new(vec![batch(MAX_ROW_COUNT), batch(MAX_ROW_COUNT + 1)]).unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.msg.contains("per-row limit"), "{err}");
        let err = Trace::new(vec![batch(u64::MAX)]).unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.msg.contains("per-row limit"), "{err}");
    }

    #[test]
    fn constructor_rejects_bad_spread() {
        let err = Trace::new(vec![ArrivalBatch {
            time: SimTime::from_secs(0.0),
            count: 1,
            spread: f64::NAN,
        }])
        .unwrap_err();
        assert_eq!(err.line, Some(1));
        assert!(err.msg.contains("spread"), "{err}");
    }
}

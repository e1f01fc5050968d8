//! One replication's arrival stream, expanded once.
//!
//! Arrivals depend on nothing but the workload and the replication's
//! `"arrivals"` random stream: no policy, dispatcher or event of the
//! simulation draws from it. So the runs of one replication that share
//! a workload — the policies of a Fig 5 or Fig 6 set — see the same
//! arrival timestamps, and an [`ArrivalStream`] expands them for all of
//! them at once (see [`RunGroup`](crate::RunGroup)).
//!
//! The stream pulls the workload's batches in runs of up to
//! [`SimConfig::arrival_run`](crate::SimConfig::arrival_run), spreads
//! each batch's requests with one uniform draw per request, and sorts
//! them, in the draw order of a simulation that releases each pulled
//! run at its first batch's instant. A time is *ready* once no later
//! run can bring an earlier one: every later arrival falls at or after
//! the next run's release instant.

use vmprov_des::{RngFactory, SimRng, SimTime};
use vmprov_workloads::{ArrivalBatch, ArrivalProcess};

/// The arrival times of one replication, in time order, a pulled run
/// at a time.
pub struct ArrivalStream {
    workload: Box<dyn ArrivalProcess + Send>,
    rng: SimRng,
    /// Batches pulled per run.
    run: usize,
    /// The pulled run awaiting expansion (empty once the workload is
    /// exhausted).
    pending: Vec<ArrivalBatch>,
    /// The pending run's release instant: its first batch's time, never
    /// before the previous release.
    release: SimTime,
    /// Expanded times, sorted: `times[taken..ready]` are ready and not
    /// yet taken, `times[ready..]` wait for a later run's release.
    times: Vec<SimTime>,
    ready: usize,
    taken: usize,
}

impl ArrivalStream {
    /// Opens the stream of `workload` on `rngs`' `"arrivals"` stream,
    /// pulling `run` batches at a time (at least one), and pulls the
    /// first run.
    pub fn new(mut workload: Box<dyn ArrivalProcess + Send>, rngs: &RngFactory, run: u32) -> Self {
        let mut rng = rngs.stream("arrivals");
        let run = run.max(1) as usize;
        let mut pending = Vec::new();
        workload.next_batch_run(&mut rng, run, &mut pending);
        let release = pending.first().map_or(SimTime::ZERO, |b| b.time);
        ArrivalStream {
            workload,
            rng,
            run,
            pending,
            release,
            times: Vec::new(),
            ready: 0,
            taken: 0,
        }
    }

    /// How many rows past a pulled run's first row the stream has
    /// taken from the workload once it has [expanded](Self::expand)
    /// that run, pulling `run` batches at a time: the run itself
    /// reaches `run − 1` rows past its first, and the pull at the end
    /// of `expand` takes up to `run` more. A workload fed from rows
    /// published ahead of a bound (a stepped trace scan) must have this
    /// many out past the row of any run released before the bound.
    pub fn rows_ahead(run: u32) -> usize {
        2 * run.max(1) as usize - 1
    }

    /// The workload's generation horizon.
    pub fn horizon(&self) -> SimTime {
        self.workload.horizon()
    }

    /// The ready times not yet taken, in time order.
    #[inline]
    pub fn ready(&self) -> &[SimTime] {
        &self.times[self.taken..self.ready]
    }

    /// Marks the first `n` ready times as taken.
    #[inline]
    pub fn take(&mut self, n: usize) {
        debug_assert!(self.taken + n <= self.ready, "took unready times");
        self.taken += n;
    }

    /// The release instant of the next run to expand, or `None` once
    /// the workload is exhausted.
    pub fn next_release(&self) -> Option<SimTime> {
        (!self.pending.is_empty()).then_some(self.release)
    }

    /// Expands the pending run and pulls the next one, making ready
    /// every time no later run can precede (all of them at the end).
    /// Call once every ready time is taken.
    pub fn expand(&mut self) {
        debug_assert!(self.ready().is_empty(), "expanding over untaken times");
        self.times.drain(..self.taken);
        self.taken = 0;
        let now = self.release;
        let held = self.times.len();
        for b in &self.pending {
            let base = b.time.max(now);
            if b.spread > 0.0 {
                let from = self.times.len();
                for _ in 0..b.count {
                    self.times.push(base + self.rng.uniform(0.0, b.spread));
                }
                self.times[from..].sort_unstable();
            } else {
                let len = self.times.len() + b.count as usize;
                self.times.resize(len, base);
            }
        }
        // A run's own times are in order: the pull stops after its
        // first spread batch, so only its last segment is spread. Times
        // held from earlier runs may still reach past its start.
        if held > 0 && held < self.times.len() && self.times[held] < self.times[held - 1] {
            self.times.sort_unstable();
        }
        self.pending.clear();
        // The pull `rows_ahead` counts: up to `run` rows after the
        // expanded run's.
        if self
            .workload
            .next_batch_run(&mut self.rng, self.run, &mut self.pending)
            > 0
        {
            self.release = self.pending[0].time.max(now);
            let release = self.release;
            self.ready = self.times.partition_point(|&t| t <= release);
        } else {
            self.ready = self.times.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprov_workloads::Trace;

    fn batch(time: f64, count: u64, spread: f64) -> ArrivalBatch {
        ArrivalBatch {
            time: SimTime::from_secs(time),
            count,
            spread,
        }
    }

    /// Every time of the stream, expanding and taking until the end.
    fn drain(stream: &mut ArrivalStream) -> Vec<f64> {
        let mut out = Vec::new();
        loop {
            out.extend(stream.ready().iter().map(|t| t.as_secs()));
            stream.take(stream.ready().len());
            if stream.next_release().is_none() {
                return out;
            }
            stream.expand();
        }
    }

    #[test]
    fn overlapping_spreads_come_out_sorted_and_complete() {
        // Each spread batch reaches past the next batch's instant.
        let trace = Trace::new(vec![
            batch(0.0, 50, 10.0),
            batch(2.0, 3, 0.0),
            batch(4.0, 50, 10.0),
            batch(30.0, 1, 0.0),
        ])
        .unwrap();
        for run in [1, 2, 64] {
            let mut stream =
                ArrivalStream::new(Box::new(trace.clone().replay()), &RngFactory::new(5), run);
            let times = drain(&mut stream);
            assert_eq!(times.len(), 104, "run {run}");
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "run {run}");
            assert_eq!(times.iter().filter(|&&t| t == 2.0).count(), 3);
            assert_eq!(times.last(), Some(&30.0));
        }
    }

    #[test]
    fn ready_times_never_pass_the_next_release() {
        let trace = Trace::new(vec![batch(0.0, 20, 60.0), batch(5.0, 2, 0.0)]).unwrap();
        let mut stream = ArrivalStream::new(Box::new(trace.replay()), &RngFactory::new(1), 1);
        assert_eq!(stream.next_release(), Some(SimTime::ZERO));
        stream.expand();
        assert_eq!(stream.next_release(), Some(SimTime::from_secs(5.0)));
        assert!(stream.ready().iter().all(|t| t.as_secs() <= 5.0));
        let first = stream.ready().len();
        stream.take(first);
        stream.expand();
        assert_eq!(stream.next_release(), None);
        assert_eq!(first + stream.ready().len(), 22, "the end makes all ready");
    }
}

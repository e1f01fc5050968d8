//! Output metrics of a simulation run — exactly the quantities §V-A
//! collects: average response time and its standard deviation, min/max
//! concurrent instances, VM hours, QoS violations, rejection percentage,
//! and the resource utilization rate (busy time / VM hours).

use vmprov_des::stats::{LogHistogram, TimeWeighted, TwoLaneStats};
use vmprov_des::SimTime;
use vmprov_json::{field, field_f64, field_str, field_u64, FromJson, Json, ToJson};

/// Collection knobs for [`RunMetrics`]: what to record beyond the
/// always-on counters, and at what cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsOptions {
    /// Record a [`LogHistogram::for_latencies`] response-time histogram
    /// (1 µs … ~3 h at 1%), which the summary's p99 is read from.
    /// Off by default (the full-scale setting).
    /// Measured cost per completion in `quickbench`: 8.4 ns without
    /// (`stats_record_hot`) vs 9.3 ns with (`stats_record_hot_hist`) —
    /// the bit-index fast path (`LogHistogram::record`) hides most of
    /// the bucket increment under the two-lane Welford division chain.
    /// The historical `ln()` bucket index cost 13.4 ns per completion
    /// at the same baseline (BENCH_des.json history).
    pub histogram: bool,
}

impl MetricsOptions {
    /// Default options with histogram (and hence p99) collection on.
    pub fn with_histogram() -> Self {
        MetricsOptions { histogram: true }
    }
}

/// Live metric accumulators updated by the simulation.
#[derive(Debug)]
pub struct RunMetrics {
    /// Completed requests, folded once each: lane 0 holds the response
    /// times (so `response.mean()`, `std_dev()` and `max()` are the
    /// response moments the summary reports) and lane 1 the service
    /// times, the monitored Tm/SCV the G/G/1/k refinement reads at
    /// every evaluation.
    pub response: TwoLaneStats,
    /// Response-time histogram (for quantiles), optional because the
    /// full-scale web run records 5·10⁸ samples and the per-sample
    /// bucket increment is measurable at that volume (see
    /// [`MetricsOptions::histogram`] for the measured cost).
    pub response_hist: Option<LogHistogram>,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Total requests offered (accepted + rejected).
    pub offered: u64,
    /// Accepted requests whose response time exceeded Ts.
    pub qos_violations: u64,
    /// Σ wall-clock seconds of every VM from creation to destruction.
    pub vm_seconds: f64,
    /// Σ service time of completed requests (the numerator of the
    /// utilization rate).
    pub busy_seconds: f64,
    /// Piecewise-constant count of existing (booting/active/draining)
    /// instances.
    pub instances: TimeWeighted,
    /// VMs created over the run (including the initial fleet).
    pub vms_created: u64,
    /// VM creation attempts refused by the host pool (capacity).
    pub vm_creation_failures: u64,
    /// Instances killed by injected failures.
    pub instance_failures: u64,
    /// Admitted requests lost to instance crashes.
    pub requests_lost_to_failures: u64,
}

impl RunMetrics {
    /// Creates the accumulators at time zero with `initial` instances,
    /// collecting what `options` asks for.
    pub fn new(initial_instances: u32, options: MetricsOptions) -> Self {
        RunMetrics {
            response: TwoLaneStats::new(),
            response_hist: options.histogram.then(LogHistogram::for_latencies),
            rejected: 0,
            offered: 0,
            qos_violations: 0,
            vm_seconds: 0.0,
            busy_seconds: 0.0,
            instances: TimeWeighted::new(SimTime::ZERO, f64::from(initial_instances)),
            vms_created: 0,
            vm_creation_failures: 0,
            instance_failures: 0,
            requests_lost_to_failures: 0,
        }
    }

    /// Records one accepted request's completion: its response and
    /// service times in one two-lane fold, the histogram, the busy
    /// time and the QoS-violation count.
    ///
    /// `inline(always)`: this is the per-request sink on the simulation
    /// hot path, and the histogram body is built to overlap with the
    /// Welford fold — LLVM outlines it once a binary accumulates
    /// several call sites, which costs a call per sample and
    /// serializes that overlap.
    #[inline(always)]
    pub fn record_completion(&mut self, response_time: f64, service_time: f64, ts: f64) {
        self.response.push([response_time, service_time]);
        if let Some(h) = &mut self.response_hist {
            h.record(response_time);
        }
        self.busy_seconds += service_time;
        // Branchless: the violation predicate follows the response-time
        // distribution (essentially a coin flip under mixed load), and
        // a guarded increment mispredicts often enough to be measurable
        // in `stats_record_hot`.
        self.qos_violations += u64::from(response_time > ts);
    }

    /// [`record_completion`](Self::record_completion) under its old
    /// engine-facing name, kept for callers written when the service
    /// fold was a separate push.
    #[inline(always)]
    pub fn record_run_completion(&mut self, response_time: f64, service_time: f64, ts: f64) {
        self.record_completion(response_time, service_time, ts);
    }

    /// No-op: every completion is folded into the accumulators as it
    /// arrives, so reads are always current. Kept for callers written
    /// against the removed deferred-sample sink.
    #[inline]
    pub fn flush_samples(&mut self) {}

    /// Freezes the accumulators into a summary at `end`. `in_flight`
    /// is the number of admitted requests still queued or in service.
    ///
    /// # Panics
    /// Panics when request conservation fails: every offered request
    /// was accepted or rejected, and every accepted one completed, was
    /// lost to a failure, or is still in flight. Checked in every
    /// build, so a broken run never reaches a figure.
    pub fn finalize(&self, end: SimTime, policy: &str, in_flight: u64) -> RunSummary {
        assert!(
            self.rejected <= self.offered,
            "more rejections than offers: {} of {}",
            self.rejected,
            self.offered
        );
        let accepted = self.offered - self.rejected;
        assert_eq!(
            accepted,
            self.response.count() + self.requests_lost_to_failures + in_flight,
            "accepted requests must complete, be lost, or be in flight"
        );
        let rejection_rate = if self.offered > 0 {
            self.rejected as f64 / self.offered as f64
        } else {
            0.0
        };
        RunSummary {
            policy: policy.to_string(),
            end_time: end.as_secs(),
            offered_requests: self.offered,
            accepted_requests: accepted,
            rejected_requests: self.rejected,
            rejection_rate,
            qos_violations: self.qos_violations,
            mean_response_time: self.response.mean(),
            std_response_time: self.response.std_dev(),
            max_response_time: if self.response.count() > 0 {
                self.response.max()
            } else {
                0.0
            },
            p99_response_time: self.response_hist.as_ref().and_then(|h| h.quantile(0.99)),
            min_instances: self.instances.min() as u32,
            max_instances: self.instances.max() as u32,
            mean_instances: self.instances.average(end),
            vm_hours: self.vm_seconds / 3600.0,
            utilization: if self.vm_seconds > 0.0 {
                self.busy_seconds / self.vm_seconds
            } else {
                0.0
            },
            vms_created: self.vms_created,
            vm_creation_failures: self.vm_creation_failures,
            rejected_high: 0,
            offered_high: 0,
            rejection_rate_high: 0.0,
            rejection_rate_low: rejection_rate,
            instance_failures: self.instance_failures,
            requests_lost_to_failures: self.requests_lost_to_failures,
        }
    }
}

/// Final metrics of one simulation run (one policy × one replication).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Policy name ("Adaptive", "Static-50", …).
    pub policy: String,
    /// Simulated end time (seconds).
    pub end_time: f64,
    /// Requests offered to admission control.
    pub offered_requests: u64,
    /// Requests accepted.
    pub accepted_requests: u64,
    /// Requests rejected.
    pub rejected_requests: u64,
    /// rejected / offered.
    pub rejection_rate: f64,
    /// Accepted requests finishing later than Ts.
    pub qos_violations: u64,
    /// Mean response time of accepted requests (seconds) — Fig 5(d)/6(d).
    pub mean_response_time: f64,
    /// Standard deviation of response times — Fig 5(d)/6(d) error bars.
    pub std_response_time: f64,
    /// Largest observed response time.
    pub max_response_time: f64,
    /// 99th percentile response time when histogram collection was on.
    pub p99_response_time: Option<f64>,
    /// Fewest instances existing at once — Fig 5(a)/6(a).
    pub min_instances: u32,
    /// Most instances existing at once — Fig 5(a)/6(a).
    pub max_instances: u32,
    /// Time-weighted average instance count.
    pub mean_instances: f64,
    /// Σ VM wall-clock hours — Fig 5(c)/6(c).
    pub vm_hours: f64,
    /// busy time / VM time — Fig 5(b)/6(b).
    pub utilization: f64,
    /// VMs created over the run.
    pub vms_created: u64,
    /// VM requests the data center could not place.
    pub vm_creation_failures: u64,
    /// Always 0. This field and the next three are compatibility names
    /// left from the removed two-class priority admission: callers
    /// still build `RunSummary` field by field, and the goldens and
    /// cache entries carry them.
    pub rejected_high: u64,
    /// Always 0 (a compatibility name, as `rejected_high`).
    pub offered_high: u64,
    /// Always 0.0 (a compatibility name, as `rejected_high`).
    pub rejection_rate_high: f64,
    /// Always equal to `rejection_rate` (a compatibility name, as
    /// `rejected_high`): with no high class every request is "low".
    pub rejection_rate_low: f64,
    /// Instances killed by injected failures.
    pub instance_failures: u64,
    /// Admitted requests lost to instance crashes.
    pub requests_lost_to_failures: u64,
}

impl ToJson for RunSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("policy", Json::from(self.policy.clone())),
            ("end_time", Json::from(self.end_time)),
            ("offered_requests", Json::from(self.offered_requests)),
            ("accepted_requests", Json::from(self.accepted_requests)),
            ("rejected_requests", Json::from(self.rejected_requests)),
            ("rejection_rate", Json::from(self.rejection_rate)),
            ("qos_violations", Json::from(self.qos_violations)),
            ("mean_response_time", Json::from(self.mean_response_time)),
            ("std_response_time", Json::from(self.std_response_time)),
            ("max_response_time", Json::from(self.max_response_time)),
            ("p99_response_time", Json::from(self.p99_response_time)),
            ("min_instances", Json::from(self.min_instances)),
            ("max_instances", Json::from(self.max_instances)),
            ("mean_instances", Json::from(self.mean_instances)),
            ("vm_hours", Json::from(self.vm_hours)),
            ("utilization", Json::from(self.utilization)),
            ("vms_created", Json::from(self.vms_created)),
            (
                "vm_creation_failures",
                Json::from(self.vm_creation_failures),
            ),
            ("rejected_high", Json::from(self.rejected_high)),
            ("offered_high", Json::from(self.offered_high)),
            ("rejection_rate_high", Json::from(self.rejection_rate_high)),
            ("rejection_rate_low", Json::from(self.rejection_rate_low)),
            ("instance_failures", Json::from(self.instance_failures)),
            (
                "requests_lost_to_failures",
                Json::from(self.requests_lost_to_failures),
            ),
        ])
    }
}

impl FromJson for RunSummary {
    fn from_json(v: &Json) -> Result<Self, String> {
        let u32_field = |key: &str| -> Result<u32, String> {
            u32::try_from(field_u64(v, key)?).map_err(|_| format!("field `{key}` overflows u32"))
        };
        Ok(RunSummary {
            policy: field_str(v, "policy")?,
            end_time: field_f64(v, "end_time")?,
            offered_requests: field_u64(v, "offered_requests")?,
            accepted_requests: field_u64(v, "accepted_requests")?,
            rejected_requests: field_u64(v, "rejected_requests")?,
            rejection_rate: field_f64(v, "rejection_rate")?,
            qos_violations: field_u64(v, "qos_violations")?,
            mean_response_time: field_f64(v, "mean_response_time")?,
            std_response_time: field_f64(v, "std_response_time")?,
            max_response_time: field_f64(v, "max_response_time")?,
            p99_response_time: match field(v, "p99_response_time")? {
                Json::Null => None,
                other => Some(
                    other
                        .as_f64()
                        .ok_or_else(|| "field `p99_response_time` is not a number".to_string())?,
                ),
            },
            min_instances: u32_field("min_instances")?,
            max_instances: u32_field("max_instances")?,
            mean_instances: field_f64(v, "mean_instances")?,
            vm_hours: field_f64(v, "vm_hours")?,
            utilization: field_f64(v, "utilization")?,
            vms_created: field_u64(v, "vms_created")?,
            vm_creation_failures: field_u64(v, "vm_creation_failures")?,
            rejected_high: field_u64(v, "rejected_high")?,
            offered_high: field_u64(v, "offered_high")?,
            rejection_rate_high: field_f64(v, "rejection_rate_high")?,
            rejection_rate_low: field_f64(v, "rejection_rate_low")?,
            instance_failures: field_u64(v, "instance_failures")?,
            requests_lost_to_failures: field_u64(v, "requests_lost_to_failures")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprov_des::stats::OnlineStats;

    #[test]
    fn summary_derivations() {
        let mut m = RunMetrics::new(2, MetricsOptions::with_histogram());
        m.offered = 10;
        m.rejected = 2;
        m.record_completion(0.2, 0.1, 0.25);
        m.record_completion(0.3, 0.1, 0.25); // violation
        m.vm_seconds = 7200.0;
        m.instances.update(SimTime::from_secs(100.0), 5.0);
        let s = m.finalize(SimTime::from_secs(200.0), "Test", 6);
        assert_eq!(s.policy, "Test");
        assert_eq!(s.accepted_requests, 8);
        assert!((s.rejection_rate - 0.2).abs() < 1e-12);
        assert_eq!(s.qos_violations, 1);
        assert!((s.mean_response_time - 0.25).abs() < 1e-12);
        assert_eq!(s.min_instances, 2);
        assert_eq!(s.max_instances, 5);
        assert!((s.vm_hours - 2.0).abs() < 1e-12);
        assert!((s.utilization - 0.2 / 7200.0).abs() < 1e-12);
        assert!(s.p99_response_time.is_some());
    }

    #[test]
    fn summary_json_round_trips() {
        let mut m = RunMetrics::new(2, MetricsOptions::with_histogram());
        m.offered = 10;
        m.rejected = 2;
        m.record_completion(0.2, 0.1, 0.25);
        m.vm_seconds = 7200.0;
        m.instances.update(SimTime::from_secs(100.0), 5.0);
        let s = m.finalize(SimTime::from_secs(200.0), "Test", 7);
        let text = s.to_json().to_string_pretty();
        let back = RunSummary::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        // And the Option field serializes as null when absent.
        let empty =
            RunMetrics::new(1, MetricsOptions::default()).finalize(SimTime::from_secs(1.0), "E", 0);
        let back =
            RunSummary::from_json(&Json::parse(&empty.to_json().to_string_pretty()).unwrap())
                .unwrap();
        assert_eq!(back.p99_response_time, None);
    }

    #[test]
    fn empty_run_is_well_defined() {
        let m = RunMetrics::new(1, MetricsOptions::default());
        let s = m.finalize(SimTime::from_secs(10.0), "Empty", 0);
        assert_eq!(s.offered_requests, 0);
        assert_eq!(s.rejection_rate, 0.0);
        assert_eq!(s.utilization, 0.0);
        assert_eq!(s.mean_response_time, 0.0);
        assert!(s.p99_response_time.is_none());
    }

    #[test]
    #[should_panic(expected = "accepted requests must complete, be lost, or be in flight")]
    fn finalize_rejects_a_run_that_loses_requests() {
        // 10 accepted, but only 1 completed + 2 lost + 3 in flight.
        let mut m = RunMetrics::new(1, MetricsOptions::default());
        m.offered = 12;
        m.rejected = 2;
        m.record_completion(0.1, 0.1, 1.0);
        m.requests_lost_to_failures = 2;
        m.finalize(SimTime::from_secs(1.0), "Leaky", 3);
    }

    #[test]
    fn histogram_can_be_disabled() {
        let mut m = RunMetrics::new(1, MetricsOptions::default());
        m.record_completion(0.1, 0.1, 1.0);
        assert!(m.response_hist.is_none());
        assert_eq!(m.response.count(), 1);
    }

    #[test]
    fn p99_is_read_from_a_collected_non_empty_histogram() {
        let mut m = RunMetrics::new(1, MetricsOptions::with_histogram());
        assert_eq!(
            m.finalize(SimTime::from_secs(1.0), "T", 0)
                .p99_response_time,
            None,
            "an empty histogram has no p99"
        );
        m.offered = 100;
        for _ in 0..100 {
            m.record_completion(0.5, 0.5, 1.0);
        }
        let p99 = m
            .finalize(SimTime::from_secs(1.0), "T", 0)
            .p99_response_time
            .expect("quantile available");
        assert!(
            (p99 - 0.5).abs() < 0.5 * 0.011,
            "p99 {p99} within 1% bucket"
        );
    }

    #[test]
    fn without_priority_low_rate_equals_overall() {
        // The four fields left from priority admission are constants
        // but for the "low" rate, which is the overall rate bit for bit.
        let mut m = RunMetrics::new(1, MetricsOptions::default());
        m.offered = 7;
        m.rejected = 3;
        let s = m.finalize(SimTime::from_secs(1.0), "P", 4);
        assert_eq!((s.rejected_high, s.offered_high), (0, 0));
        assert_eq!(s.rejection_rate_high.to_bits(), 0.0f64.to_bits());
        assert_eq!(s.rejection_rate_low.to_bits(), s.rejection_rate.to_bits());
        assert_eq!(s.rejection_rate.to_bits(), (3.0f64 / 7.0).to_bits());
    }

    #[test]
    fn streaming_run_completion_is_bit_identical_to_legacy_sequence() {
        // The engine once folded each completion twice, a response push
        // and a separate service push; the two-lane fold reproduces
        // both standalone folds exactly.
        let (mut response, mut service) = (OnlineStats::new(), OnlineStats::new());
        let mut unified = RunMetrics::new(1, MetricsOptions::default());
        for i in 0..200u64 {
            let r = 0.09 + (i % 7) as f64 * 0.011;
            let svc = 0.08 + (i % 5) as f64 * 0.007;
            response.push(r);
            service.push(svc);
            unified.record_completion(r, svc, 0.25);
        }
        let folded = &unified.response;
        assert_eq!(folded.count(), response.count());
        assert_eq!(folded.mean().to_bits(), response.mean().to_bits());
        assert_eq!(folded.std_dev().to_bits(), response.std_dev().to_bits());
        assert_eq!(folded.max().to_bits(), response.max().to_bits());
        assert_eq!(folded.means()[1].to_bits(), service.mean().to_bits());
        assert_eq!(
            folded.population_variances()[1].to_bits(),
            service.population_variance().to_bits()
        );
        assert_eq!(
            folded.variances()[1].to_bits(),
            service.variance().to_bits()
        );
    }

    #[test]
    fn summary_json_round_trips_every_field() {
        // A summary with every field set to a distinct, non-default
        // value — including Some(p99) and the compatibility/failure counters
        // — survives ToJson → parse → FromJson bit-identically.
        let s = RunSummary {
            policy: "Adaptive".to_string(),
            end_time: 604800.5,
            offered_requests: 1_000_001,
            accepted_requests: 999_900,
            rejected_requests: 101,
            rejection_rate: 101.0 / 1_000_001.0,
            qos_violations: 37,
            mean_response_time: 0.1375,
            std_response_time: 0.0421,
            max_response_time: 3.25,
            p99_response_time: Some(0.9875),
            min_instances: 7,
            max_instances: 153,
            mean_instances: 88.125,
            vm_hours: 12345.678,
            utilization: 0.8125,
            vms_created: 412,
            vm_creation_failures: 3,
            rejected_high: 11,
            offered_high: 300_000,
            rejection_rate_high: 11.0 / 300_000.0,
            rejection_rate_low: 90.0 / 700_001.0,
            instance_failures: 9,
            requests_lost_to_failures: 23,
        };
        let text = s.to_json().to_string_pretty();
        let back = RunSummary::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        // Same through the compact form.
        let compact =
            RunSummary::from_json(&Json::parse(&s.to_json().to_string_compact()).unwrap()).unwrap();
        assert_eq!(compact, s);
    }
}

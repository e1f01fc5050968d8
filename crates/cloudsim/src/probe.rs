//! Structured observability for simulation runs.
//!
//! A [`Probe`] receives a callback for every simulation event — request
//! arrivals, admission decisions, service starts/completions, the whole
//! VM lifecycle, every Algorithm 1 [`SizingDecision`] with its inputs —
//! plus an optional periodic [`PoolSample`] of aggregate pool state.
//! The simulation is generic over the probe
//! ([`CloudSim<P>`](crate::CloudSim)), so the default [`NullProbe`]
//! monomorphizes every hook to nothing: a probe-less run compiles to
//! the same hot path as before the observability layer existed, and
//! since no probe ever draws randomness or mutates the world, *any*
//! probe leaves the [`RunSummary`](crate::RunSummary) bit-identical.
//!
//! Built-in probes:
//!
//! * [`TraceProbe`] — one JSON object per event, written as JSONL;
//! * [`TimeSeriesProbe`] — aggregate pool state at a configurable Δt
//!   (instance count, queue depth, λ predicted vs. realized, rolling
//!   utilization — the Fig 5/6 panel quantities).
//!
//! Probes compose as tuples: `(TraceProbe, TimeSeriesProbe)` feeds both.

use std::io::Write;
use vmprov_core::modeler::SizingDecision;
use vmprov_des::SimTime;
use vmprov_json::{Json, ToJson};

/// The class of a request. One variant: a compatibility name left
/// from the removed two-class priority admission, kept because
/// [`Probe::on_arrival`] and [`Probe::on_reject`] still carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Every request: it may use every queue slot.
    High,
}

/// Why admission control rejected a request. One variant (a
/// compatibility name, as [`RequestClass`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Every active instance held k requests (or the pool held no
    /// active instances at all).
    PoolFull,
}

impl RejectReason {
    /// Stable label used in traces.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::PoolFull => "pool_full",
        }
    }
}

/// Aggregate pool state captured at one sampling tick.
///
/// Cumulative fields (`offered`, `rejected`, `completed`,
/// `response_sum`, `busy_seconds`, `vm_seconds`) are totals since t = 0
/// so consumers can difference consecutive samples into window rates
/// without the simulation tracking per-probe windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolSample {
    /// Sample time (seconds).
    pub t: f64,
    /// Existing instances: booting + active + draining.
    pub instances: u32,
    /// Instances accepting requests.
    pub active: u32,
    /// Instances still booting.
    pub booting: u32,
    /// Instances draining toward destruction.
    pub draining: u32,
    /// Requests currently queued or in service across the pool.
    pub queue_depth: u64,
    /// Active instances currently serving a request.
    pub busy: u32,
    /// Current per-instance queue capacity k (Eq. 1).
    pub k: u32,
    /// Requests offered so far.
    pub offered: u64,
    /// Requests rejected so far.
    pub rejected: u64,
    /// Requests completed so far.
    pub completed: u64,
    /// Σ response time of completed requests (seconds).
    pub response_sum: f64,
    /// Σ service time of completed requests (seconds).
    pub busy_seconds: f64,
    /// Σ VM seconds accrued so far, counting live instances up to `t`.
    pub vm_seconds: f64,
}

impl ToJson for PoolSample {
    fn to_json(&self) -> Json {
        Json::obj([
            ("t", Json::from(self.t)),
            ("instances", Json::from(self.instances)),
            ("active", Json::from(self.active)),
            ("booting", Json::from(self.booting)),
            ("draining", Json::from(self.draining)),
            ("queue_depth", Json::from(self.queue_depth)),
            ("busy", Json::from(self.busy)),
            ("k", Json::from(self.k)),
            ("offered", Json::from(self.offered)),
            ("rejected", Json::from(self.rejected)),
            ("completed", Json::from(self.completed)),
            ("response_sum", Json::from(self.response_sum)),
            ("busy_seconds", Json::from(self.busy_seconds)),
            ("vm_seconds", Json::from(self.vm_seconds)),
        ])
    }
}

/// Observer of simulation events.
///
/// Every hook defaults to a no-op, so a probe implements only what it
/// needs. Hooks receive `&mut self` and plain data; they must not (and
/// cannot) touch the simulation, its RNG streams, or its event list —
/// which is what keeps any probe's run bit-identical to a probe-less
/// one. Every hook carries its event's true time, but the service hooks
/// do not arrive in global time order (see
/// [`on_service_start`](Self::on_service_start)). Periodic sampling is
/// opt-in via [`sample_interval`](Self::sample_interval): returning
/// `Some(Δt)` makes the simulation deliver [`on_sample`](Self::on_sample)
/// at t = 0, Δt, 2Δt, … (plus one final sample when the run ends
/// off-grid).
pub trait Probe {
    /// A request reaches admission control.
    #[inline]
    fn on_arrival(&mut self, _now: SimTime, _class: RequestClass) {}

    /// Admission control rejected the request.
    #[inline]
    fn on_reject(&mut self, _now: SimTime, _class: RequestClass, _reason: RejectReason) {}

    /// The request was admitted to instance `slot` (queue length
    /// `queue_len` including this request).
    #[inline]
    fn on_admit(&mut self, _now: SimTime, _slot: u32, _queue_len: u32) {}

    /// Instance `slot` started serving the request at its queue head.
    ///
    /// `now` is the true start time. A request that waits starts when
    /// its predecessor departs, and the simulation learns of departures
    /// lazily, so this hook (and
    /// [`on_service_complete`](Self::on_service_complete)) may reach the
    /// probe after events of later times, and after hooks of other
    /// instances; each request's start still comes before its
    /// completion.
    #[inline]
    fn on_service_start(&mut self, _now: SimTime, _slot: u32) {}

    /// A request completed with the given response and service times;
    /// `now` is its true departure time, which may be earlier than
    /// events the probe has already seen (see
    /// [`on_service_start`](Self::on_service_start)).
    #[inline]
    fn on_service_complete(&mut self, _now: SimTime, _slot: u32, _response: f64, _service: f64) {}

    /// A VM was allocated and starts booting (with boot delay zero it
    /// becomes active in the same instant — `on_vm_active` follows
    /// immediately). One `on_vm_boot` fires per created VM.
    #[inline]
    fn on_vm_boot(&mut self, _now: SimTime, _slot: u32) {}

    /// Instance `slot` became active (finished booting).
    #[inline]
    fn on_vm_active(&mut self, _now: SimTime, _slot: u32) {}

    /// A scale-down put instance `slot` into draining.
    #[inline]
    fn on_vm_drain(&mut self, _now: SimTime, _slot: u32) {}

    /// A scale-up revived draining instance `slot` back to active.
    #[inline]
    fn on_vm_revive(&mut self, _now: SimTime, _slot: u32) {}

    /// Instance `slot` was destroyed (scale-down, drain completion,
    /// crash — a crash emits `on_vm_crash` first, then this).
    #[inline]
    fn on_vm_destroy(&mut self, _now: SimTime, _slot: u32) {}

    /// An injected failure crashed instance `slot`, losing
    /// `lost_requests` admitted requests.
    #[inline]
    fn on_vm_crash(&mut self, _now: SimTime, _slot: u32, _lost_requests: u64) {}

    /// The policy's evaluation ran Algorithm 1 and produced `decision`
    /// (carrying its inputs: λ, Tm, SCV, starting m — plus k, the chosen
    /// m, and the predicted per-instance metrics).
    #[inline]
    fn on_sizing(&mut self, _now: SimTime, _decision: &SizingDecision) {}

    /// Sampling period Δt for [`on_sample`](Self::on_sample), or `None`
    /// (the default) for no sampling. `None` schedules no extra events,
    /// so the probe-less hot path is untouched.
    #[inline]
    fn sample_interval(&self) -> Option<f64> {
        None
    }

    /// Periodic aggregate pool state (only with a `sample_interval`).
    #[inline]
    fn on_sample(&mut self, _sample: &PoolSample) {}
}

/// The default probe: observes nothing, costs nothing. Every hook
/// monomorphizes to an empty inline body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// Tuple composition: both probes see every event. The sample interval
/// is the smaller of the two members' (both are sampled on the merged
/// grid — a member wanting a coarser Δt sees extra samples and may
/// subsample by `t`).
impl<A: Probe, B: Probe> Probe for (A, B) {
    #[inline]
    fn on_arrival(&mut self, now: SimTime, class: RequestClass) {
        self.0.on_arrival(now, class);
        self.1.on_arrival(now, class);
    }
    #[inline]
    fn on_reject(&mut self, now: SimTime, class: RequestClass, reason: RejectReason) {
        self.0.on_reject(now, class, reason);
        self.1.on_reject(now, class, reason);
    }
    #[inline]
    fn on_admit(&mut self, now: SimTime, slot: u32, queue_len: u32) {
        self.0.on_admit(now, slot, queue_len);
        self.1.on_admit(now, slot, queue_len);
    }
    #[inline]
    fn on_service_start(&mut self, now: SimTime, slot: u32) {
        self.0.on_service_start(now, slot);
        self.1.on_service_start(now, slot);
    }
    #[inline]
    fn on_service_complete(&mut self, now: SimTime, slot: u32, response: f64, service: f64) {
        self.0.on_service_complete(now, slot, response, service);
        self.1.on_service_complete(now, slot, response, service);
    }
    #[inline]
    fn on_vm_boot(&mut self, now: SimTime, slot: u32) {
        self.0.on_vm_boot(now, slot);
        self.1.on_vm_boot(now, slot);
    }
    #[inline]
    fn on_vm_active(&mut self, now: SimTime, slot: u32) {
        self.0.on_vm_active(now, slot);
        self.1.on_vm_active(now, slot);
    }
    #[inline]
    fn on_vm_drain(&mut self, now: SimTime, slot: u32) {
        self.0.on_vm_drain(now, slot);
        self.1.on_vm_drain(now, slot);
    }
    #[inline]
    fn on_vm_revive(&mut self, now: SimTime, slot: u32) {
        self.0.on_vm_revive(now, slot);
        self.1.on_vm_revive(now, slot);
    }
    #[inline]
    fn on_vm_destroy(&mut self, now: SimTime, slot: u32) {
        self.0.on_vm_destroy(now, slot);
        self.1.on_vm_destroy(now, slot);
    }
    #[inline]
    fn on_vm_crash(&mut self, now: SimTime, slot: u32, lost_requests: u64) {
        self.0.on_vm_crash(now, slot, lost_requests);
        self.1.on_vm_crash(now, slot, lost_requests);
    }
    #[inline]
    fn on_sizing(&mut self, now: SimTime, decision: &SizingDecision) {
        self.0.on_sizing(now, decision);
        self.1.on_sizing(now, decision);
    }
    #[inline]
    fn sample_interval(&self) -> Option<f64> {
        match (self.0.sample_interval(), self.1.sample_interval()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
    #[inline]
    fn on_sample(&mut self, sample: &PoolSample) {
        self.0.on_sample(sample);
        self.1.on_sample(sample);
    }
}

// ---------------------------------------------------------------------
// TraceProbe — JSONL event writer
// ---------------------------------------------------------------------

/// Writes every event as one compact JSON object per line (JSONL).
///
/// Schema: every line has `t` (seconds) and `ev` (event name); the
/// remaining fields depend on `ev` — see EXPERIMENTS.md for the full
/// table. Write to a file with [`TraceProbe::to_path`] (buffered) or to
/// any [`Write`]r (a `Vec<u8>` in tests).
pub struct TraceProbe<W: Write> {
    out: W,
    lines: u64,
}

impl TraceProbe<std::io::BufWriter<std::fs::File>> {
    /// Creates a buffered JSONL trace at `path` (truncating).
    pub fn to_path(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(TraceProbe::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        )))
    }
}

impl<W: Write> TraceProbe<W> {
    /// Wraps a writer. Unbuffered writers pay one syscall per event —
    /// prefer [`TraceProbe::to_path`] or your own `BufWriter` for files.
    pub fn new(out: W) -> Self {
        TraceProbe { out, lines: 0 }
    }

    /// Number of trace lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        self.out.flush().expect("flush trace");
        self.out
    }

    fn line(&mut self, obj: Json) {
        writeln!(self.out, "{}", obj.to_string_compact()).expect("write trace line");
        self.lines += 1;
    }
}

impl<W: Write> Probe for TraceProbe<W> {
    fn on_arrival(&mut self, now: SimTime, _class: RequestClass) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("arrival")),
        ]));
    }
    fn on_reject(&mut self, now: SimTime, _class: RequestClass, reason: RejectReason) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("reject")),
            ("reason", Json::from(reason.label())),
        ]));
    }
    fn on_admit(&mut self, now: SimTime, slot: u32, queue_len: u32) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("admit")),
            ("slot", Json::from(slot)),
            ("queue_len", Json::from(queue_len)),
        ]));
    }
    fn on_service_start(&mut self, now: SimTime, slot: u32) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("service_start")),
            ("slot", Json::from(slot)),
        ]));
    }
    fn on_service_complete(&mut self, now: SimTime, slot: u32, response: f64, service: f64) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("service_complete")),
            ("slot", Json::from(slot)),
            ("response", Json::from(response)),
            ("service", Json::from(service)),
        ]));
    }
    fn on_vm_boot(&mut self, now: SimTime, slot: u32) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("vm_boot")),
            ("slot", Json::from(slot)),
        ]));
    }
    fn on_vm_active(&mut self, now: SimTime, slot: u32) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("vm_active")),
            ("slot", Json::from(slot)),
        ]));
    }
    fn on_vm_drain(&mut self, now: SimTime, slot: u32) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("vm_drain")),
            ("slot", Json::from(slot)),
        ]));
    }
    fn on_vm_revive(&mut self, now: SimTime, slot: u32) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("vm_revive")),
            ("slot", Json::from(slot)),
        ]));
    }
    fn on_vm_destroy(&mut self, now: SimTime, slot: u32) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("vm_destroy")),
            ("slot", Json::from(slot)),
        ]));
    }
    fn on_vm_crash(&mut self, now: SimTime, slot: u32, lost_requests: u64) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("vm_crash")),
            ("slot", Json::from(slot)),
            ("lost_requests", Json::from(lost_requests)),
        ]));
    }
    fn on_sizing(&mut self, now: SimTime, d: &SizingDecision) {
        self.line(Json::obj([
            ("t", Json::from(now.as_secs())),
            ("ev", Json::from("sizing")),
            ("lambda", Json::from(d.inputs.expected_arrival_rate)),
            ("tm", Json::from(d.inputs.monitored_service_time)),
            ("scv", Json::from(d.inputs.service_scv)),
            ("from_instances", Json::from(d.inputs.current_instances)),
            ("k", Json::from(d.queue_capacity)),
            ("instances", Json::from(d.instances)),
            ("iterations", Json::from(d.iterations)),
            (
                "predicted_rejection",
                Json::from(d.predicted.blocking_probability),
            ),
            ("predicted_utilization", Json::from(d.predicted.utilization)),
            (
                "predicted_response",
                Json::from(d.predicted.mean_response_time),
            ),
        ]));
    }
    fn on_sample(&mut self, s: &PoolSample) {
        let Json::Obj(mut members) = s.to_json() else {
            unreachable!("PoolSample serializes to an object");
        };
        members.insert(1, ("ev".to_string(), Json::from("sample")));
        self.line(Json::Obj(members));
    }
}

// ---------------------------------------------------------------------
// TimeSeriesProbe — the Fig 5/6 panel quantities over time
// ---------------------------------------------------------------------

/// One aggregated point of a [`TimeSeries`]: pool state at `t` plus
/// rates over the window ending at `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSample {
    /// Sample time (seconds).
    pub t: f64,
    /// Existing instances (Fig 5(a)/6(a)).
    pub instances: u32,
    /// Instances accepting requests.
    pub active: u32,
    /// Requests queued or in service across the pool.
    pub queue_depth: u64,
    /// Rolling utilization over the window: Δbusy / ΔVM seconds
    /// (Fig 5(b)/6(b)).
    pub utilization: f64,
    /// Realized arrival rate over the window (req/s).
    pub realized_rate: f64,
    /// λ predicted by the most recent sizing decision (NaN before the
    /// first Algorithm 1 run — static policies never set it).
    pub predicted_rate: f64,
    /// Instance count chosen by the most recent sizing decision (0
    /// before the first Algorithm 1 run).
    pub sized_instances: u32,
    /// Mean response time of completions in the window, seconds
    /// (Fig 5(d)/6(d); NaN for an empty window).
    pub mean_response: f64,
    /// Cumulative VM hours up to `t` (Fig 5(c)/6(c)).
    pub vm_hours: f64,
    /// Rejections in the window.
    pub rejected: u64,
}

impl ToJson for TimeSample {
    fn to_json(&self) -> Json {
        Json::obj([
            ("t", Json::from(self.t)),
            ("instances", Json::from(self.instances)),
            ("active", Json::from(self.active)),
            ("queue_depth", Json::from(self.queue_depth)),
            ("utilization", Json::from(self.utilization)),
            ("realized_rate", Json::from(self.realized_rate)),
            ("predicted_rate", Json::from(self.predicted_rate)),
            ("sized_instances", Json::from(self.sized_instances)),
            ("mean_response", Json::from(self.mean_response)),
            ("vm_hours", Json::from(self.vm_hours)),
            ("rejected", Json::from(self.rejected)),
        ])
    }
}

/// The output of a [`TimeSeriesProbe`] run: samples every `dt` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// Sampling period Δt (seconds).
    pub dt: f64,
    /// Samples in time order, starting at t = 0.
    pub samples: Vec<TimeSample>,
}

impl ToJson for TimeSeries {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dt", Json::from(self.dt)),
            (
                "samples",
                Json::arr(self.samples.iter().map(ToJson::to_json)),
            ),
        ])
    }
}

/// Samples aggregate pool state every `dt` simulated seconds and folds
/// each window into a [`TimeSample`] — the quantities the paper plots
/// over time in Fig 5/6, including λ predicted (from sizing decisions)
/// vs. realized (from the arrival counter).
#[derive(Debug)]
pub struct TimeSeriesProbe {
    dt: f64,
    prev: Option<PoolSample>,
    predicted_rate: f64,
    sized_instances: u32,
    samples: Vec<TimeSample>,
}

impl TimeSeriesProbe {
    /// Creates a sampler with period `dt > 0` seconds.
    pub fn new(dt: f64) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "sample interval must be > 0");
        TimeSeriesProbe {
            dt,
            prev: None,
            predicted_rate: f64::NAN,
            sized_instances: 0,
            samples: Vec::new(),
        }
    }

    /// The samples collected so far.
    pub fn samples(&self) -> &[TimeSample] {
        &self.samples
    }

    /// Consumes the probe into its [`TimeSeries`].
    pub fn into_series(self) -> TimeSeries {
        TimeSeries {
            dt: self.dt,
            samples: self.samples,
        }
    }
}

impl Probe for TimeSeriesProbe {
    fn on_sizing(&mut self, _now: SimTime, d: &SizingDecision) {
        self.predicted_rate = d.inputs.expected_arrival_rate;
        self.sized_instances = d.instances;
    }

    fn sample_interval(&self) -> Option<f64> {
        Some(self.dt)
    }

    fn on_sample(&mut self, s: &PoolSample) {
        let window = self.prev.as_ref();
        let dt = window.map_or(0.0, |p| s.t - p.t);
        let d_offered = window.map_or(s.offered, |p| s.offered - p.offered);
        let d_completed = window.map_or(s.completed, |p| s.completed - p.completed);
        let d_response = window.map_or(s.response_sum, |p| s.response_sum - p.response_sum);
        let d_busy = window.map_or(s.busy_seconds, |p| s.busy_seconds - p.busy_seconds);
        let d_vm = window.map_or(s.vm_seconds, |p| s.vm_seconds - p.vm_seconds);
        let d_rejected = window.map_or(s.rejected, |p| s.rejected - p.rejected);
        self.samples.push(TimeSample {
            t: s.t,
            instances: s.instances,
            active: s.active,
            queue_depth: s.queue_depth,
            utilization: if d_vm > 0.0 { d_busy / d_vm } else { 0.0 },
            realized_rate: if dt > 0.0 { d_offered as f64 / dt } else { 0.0 },
            predicted_rate: self.predicted_rate,
            sized_instances: self.sized_instances,
            mean_response: if d_completed > 0 {
                d_response / d_completed as f64
            } else {
                f64::NAN
            },
            vm_hours: s.vm_seconds / 3600.0,
            rejected: d_rejected,
        });
        self.prev = Some(*s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, offered: u64) -> PoolSample {
        PoolSample {
            t,
            instances: 4,
            active: 3,
            booting: 1,
            draining: 0,
            queue_depth: 5,
            busy: 3,
            k: 2,
            offered,
            rejected: offered / 10,
            completed: offered / 2,
            response_sum: offered as f64 * 0.1,
            busy_seconds: offered as f64 * 0.05,
            vm_seconds: t * 4.0,
        }
    }

    #[test]
    fn null_probe_declines_sampling() {
        assert_eq!(NullProbe.sample_interval(), None);
    }

    #[test]
    fn tuple_merges_sample_intervals() {
        assert_eq!((NullProbe, NullProbe).sample_interval(), None);
        assert_eq!(
            (TimeSeriesProbe::new(5.0), NullProbe).sample_interval(),
            Some(5.0)
        );
        assert_eq!(
            (NullProbe, TimeSeriesProbe::new(7.0)).sample_interval(),
            Some(7.0)
        );
        assert_eq!(
            (TimeSeriesProbe::new(5.0), TimeSeriesProbe::new(7.0)).sample_interval(),
            Some(5.0)
        );
    }

    #[test]
    fn tuple_forwards_to_both_members() {
        /// Counts arrivals, rejections and requests lost to crashes.
        #[derive(Default)]
        struct Counts(u64, u64, u64);
        impl Probe for Counts {
            fn on_arrival(&mut self, _: SimTime, _: RequestClass) {
                self.0 += 1;
            }
            fn on_reject(&mut self, _: SimTime, _: RequestClass, _: RejectReason) {
                self.1 += 1;
            }
            fn on_vm_crash(&mut self, _: SimTime, _: u32, lost_requests: u64) {
                self.2 += lost_requests;
            }
        }
        let mut pair = (Counts::default(), Counts::default());
        pair.on_arrival(SimTime::ZERO, RequestClass::High);
        pair.on_reject(SimTime::ZERO, RequestClass::High, RejectReason::PoolFull);
        pair.on_vm_crash(SimTime::ZERO, 0, 3);
        for c in [&pair.0, &pair.1] {
            assert_eq!((c.0, c.1, c.2), (1, 1, 3));
        }
    }

    #[test]
    fn trace_probe_writes_one_json_object_per_line() {
        let mut probe = TraceProbe::new(Vec::new());
        probe.on_arrival(SimTime::from_secs(1.5), RequestClass::High);
        probe.on_reject(
            SimTime::from_secs(2.0),
            RequestClass::High,
            RejectReason::PoolFull,
        );
        probe.on_admit(SimTime::from_secs(2.5), 7, 2);
        probe.on_sample(&sample(10.0, 100));
        assert_eq!(probe.lines(), 4);
        let text = String::from_utf8(probe.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let v = Json::parse(line).expect("valid JSON per line");
            assert!(v.get("t").is_some() && v.get("ev").is_some(), "{line}");
        }
        let reject = Json::parse(lines[1]).unwrap();
        assert_eq!(reject.get("ev").and_then(Json::as_str), Some("reject"));
        assert_eq!(
            reject.get("reason").and_then(Json::as_str),
            Some("pool_full")
        );
        let s = Json::parse(lines[3]).unwrap();
        assert_eq!(s.get("ev").and_then(Json::as_str), Some("sample"));
        assert_eq!(s.get("offered").and_then(Json::as_u64), Some(100));
    }

    #[test]
    fn time_series_windows_difference_cumulatives() {
        let mut p = TimeSeriesProbe::new(10.0);
        p.on_sample(&sample(0.0, 0));
        p.on_sample(&sample(10.0, 200));
        p.on_sample(&sample(20.0, 500));
        let ts = p.into_series();
        assert_eq!(ts.samples.len(), 3);
        // First window: 200 offered over 10 s.
        assert!((ts.samples[1].realized_rate - 20.0).abs() < 1e-12);
        // Second window: 300 offered over 10 s.
        assert!((ts.samples[2].realized_rate - 30.0).abs() < 1e-12);
        // Rolling utilization: Δbusy/Δvm = (0.05·Δoffered)/(4·Δt).
        assert!((ts.samples[2].utilization - 0.05 * 300.0 / 40.0).abs() < 1e-12);
        // Cumulative VM hours at t = 20: 80 VM·s.
        assert!((ts.samples[2].vm_hours - 80.0 / 3600.0).abs() < 1e-12);
        // No sizing decisions seen: predicted rate stays NaN.
        assert!(ts.samples[2].predicted_rate.is_nan());
    }

    #[test]
    fn time_series_json_writes_every_field() {
        let mut p = TimeSeriesProbe::new(10.0);
        p.on_sample(&sample(0.0, 0));
        p.on_sample(&sample(10.0, 200));
        let ts = p.into_series();
        let v = Json::parse(&ts.to_json().to_string_pretty()).unwrap();
        assert_eq!(v.get("dt").and_then(Json::as_f64), Some(10.0));
        let samples = v.get("samples").and_then(Json::as_array).unwrap();
        assert_eq!(samples.len(), 2);
        let (want, got) = (&ts.samples[1], &samples[1]);
        let f64s = [
            ("t", want.t),
            ("utilization", want.utilization),
            ("realized_rate", want.realized_rate),
            ("mean_response", want.mean_response),
            ("vm_hours", want.vm_hours),
        ];
        for (key, value) in f64s {
            assert_eq!(got.get(key).and_then(Json::as_f64), Some(value), "{key}");
        }
        let u64s = [
            ("instances", u64::from(want.instances)),
            ("active", u64::from(want.active)),
            ("queue_depth", want.queue_depth),
            ("sized_instances", u64::from(want.sized_instances)),
            ("rejected", want.rejected),
        ];
        for (key, value) in u64s {
            assert_eq!(got.get(key).and_then(Json::as_u64), Some(value), "{key}");
        }
        // JSON has no NaN: the rate no sizing decision has set is null.
        assert_eq!(got.get("predicted_rate"), Some(&Json::Null));
    }

    #[test]
    #[should_panic(expected = "sample interval must be > 0")]
    fn time_series_rejects_zero_dt() {
        TimeSeriesProbe::new(0.0);
    }
}

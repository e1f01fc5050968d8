//! The metric table, dispersion statistics, output checks and the
//! result line.

use vmprov_cloudsim::RunSummary;
use vmprov_des::stable_hash64;
use vmprov_json::{Json, ToJson};

/// One metric the benchmark emits: end-to-end metrics carry the share of
/// the parent's median by which they may worsen (the regression bound,
/// also the `unstable` threshold of one run's spread); per-layer metrics
/// carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

/// An end-to-end metric; every one is lower-is-better.
const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        higher_is_better: true,
        ..lower(name, unit)
    }
}

/// Emitted by untraced runs. Both tables are kept equal to
/// `BENCHMARK.json` by a test.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", 0.24),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.15),
];

/// Emitted by traced runs, in `BENCHMARK.json` order.
pub const PER_LAYER: &[MetricDef] = &[
    lower("des.fel.ns_per_op", "ns"),
    lower("des.fel.ops_per_req", "count"),
    lower("des.fel.pending_mean", "count"),
    lower("des.fel.bulk_ns_per_op", "ns"),
    lower("workloads.gen.ns_per_batch", "ns"),
    lower("workloads.gen.batches_per_req", "count"),
    lower("workloads.csv.ns_per_batch", "ns"),
    lower("workloads.shared.decode_amplification", "ratio"),
    lower("workloads.shared.trace_opens", "count"),
    lower("workloads.shared.max_window", "count"),
    higher("workloads.scan.mb_per_s", "MB/s"),
    lower("core.dispatch.ns_per_pick", "ns"),
    lower("core.modeler.ns_per_call", "ns"),
    lower("core.modeler.calls_per_run", "count"),
    lower("core.modeler.iters_per_call", "count"),
    lower("core.estimator.ns_per_observe", "ns"),
    lower("cloudsim.metrics.ns_per_completion", "ns"),
    lower("cloudsim.events_per_req", "count"),
    lower("cloudsim.reject_frac", "ratio"),
    lower("cloudsim.setup_us_per_run", "us"),
    lower("cloudsim.vm_churn_per_run", "ratio"),
    lower("cloudsim.vm_creation_failures", "count"),
    higher("experiments.pool.busy_frac", "ratio"),
    lower("experiments.pool.tail_s", "s"),
    lower("experiments.pool.us_per_job", "us"),
    lower("experiments.cache.store_us", "us"),
    lower("experiments.cache.key_us", "us"),
    lower("experiments.cache.lookup_us", "us"),
    lower("experiments.cache.bytes_per_entry", "bytes"),
    lower("experiments.cache.corrupt_entries", "count"),
    lower("cloudsim.residual_ns_per_req", "ns"),
    lower("trace.overhead_pct", "%"),
];

/// Median (mean of the middle two for even counts), as Python's
/// `statistics.median` gives it.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (the default exclusive method), so a run's reported spread is the
/// statistic its readers compute over runs. One sample is its own
/// quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The samples of one metric within one run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub def: MetricDef,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    /// IQR ÷ median; 0 for a zero median (counts that are 0 throughout).
    pub fn spread(&self) -> f64 {
        let (q1, q3) = quartiles(&self.samples);
        let m = self.value();
        if m == 0.0 {
            0.0
        } else {
            (q3 - q1) / m.abs()
        }
    }

    pub fn unstable(&self) -> bool {
        self.def.bound.is_some_and(|b| self.spread() > b)
    }

    /// `name value unit (median; q1–q3; n)`, flagged when the run's own
    /// spread exceeds the metric's regression bound.
    pub fn line(&self) -> String {
        let (q1, q3) = quartiles(&self.samples);
        format!(
            "{} {} {} (median; {}–{}; n={}){}",
            self.def.name,
            fmt_num(self.value()),
            self.def.unit,
            fmt_num(q1),
            fmt_num(q3),
            self.samples.len(),
            if self.unstable() { " unstable" } else { "" }
        )
    }

    pub fn to_json(&self) -> Json {
        let (q1, q3) = quartiles(&self.samples);
        Json::obj([
            ("unit", Json::from(self.def.unit)),
            (
                "better",
                Json::from(if self.def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }),
            ),
            ("value", Json::from(self.value())),
            ("q1", Json::from(q1)),
            ("q3", Json::from(q3)),
            ("n", Json::from(self.samples.len())),
            ("unstable", Json::from(self.unstable())),
            (
                "samples",
                Json::arr(self.samples.iter().map(|&x| Json::from(x))),
            ),
        ])
    }
}

fn fmt_num(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// Builds the metrics of `defs`, in table order, from the samples
/// `samples(name)` returns.
///
/// # Panics
/// When a metric of the table was not measured — every run emits its
/// whole table.
pub fn collect(defs: &[MetricDef], samples: impl Fn(&str) -> Vec<f64>) -> Vec<Metric> {
    defs.iter()
        .map(|def| {
            let got = samples(def.name);
            assert!(!got.is_empty(), "metric {} was not measured", def.name);
            assert!(
                got.iter().all(|x| x.is_finite()),
                "metric {} is not finite",
                def.name
            );
            Metric {
                def: *def,
                samples: got,
            }
        })
        .collect()
}

/// Output checks: each call is one attempt, and failed attempts keep
/// their description for the report.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Request conservation on every summary: offered = accepted +
    /// rejected.
    pub fn conservation(&mut self, summaries: &[RunSummary]) {
        for s in summaries {
            self.check(
                s.offered_requests == s.accepted_requests + s.rejected_requests,
                || {
                    format!(
                        "{}: offered {} != accepted {} + rejected {}",
                        s.policy, s.offered_requests, s.accepted_requests, s.rejected_requests
                    )
                },
            );
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed())),
            (
                "failures",
                Json::arr(self.failures.iter().map(|f| Json::from(f.as_str()))),
            ),
        ])
    }

    /// Adds the attempts and failures of a [`to_json`](Self::to_json)
    /// document.
    pub fn merge_json(&mut self, doc: &Json) {
        self.attempted += doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        let failures = doc.get("failures").and_then(Json::as_array).unwrap_or(&[]);
        self.failures
            .extend(failures.iter().filter_map(Json::as_str).map(String::from));
    }
}

/// Digest of a unit's summaries: the hash of their canonical JSON, equal
/// across repeats of a deterministic unit.
pub fn digest(summaries: &[RunSummary]) -> u64 {
    let doc = Json::arr(summaries.iter().map(ToJson::to_json));
    stable_hash64(doc.to_string_canonical().as_bytes())
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` (each `{value, unit}`).
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::from(checks.failures.is_empty())),
        ("attempted", Json::from(checks.attempted)),
        ("failed", Json::from(checks.failed())),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.def.name.to_string(),
                            Json::obj([
                                ("value", Json::from(m.value())),
                                ("unit", Json::from(m.def.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> RunSummary {
        RunSummary {
            policy: "Static-50".into(),
            end_time: 60.0,
            offered_requests: 100,
            accepted_requests: 90,
            rejected_requests: 10,
            rejection_rate: 0.1,
            qos_violations: 0,
            mean_response_time: 0.1,
            std_response_time: 0.01,
            max_response_time: 0.2,
            p99_response_time: None,
            min_instances: 50,
            max_instances: 50,
            mean_instances: 50.0,
            vm_hours: 50.0 / 60.0,
            utilization: 0.5,
            vms_created: 50,
            vm_creation_failures: 0,
            rejected_high: 0,
            offered_high: 0,
            rejection_rate_high: 0.0,
            rejection_rate_low: 0.1,
            instance_failures: 0,
            requests_lost_to_failures: 0,
        }
    }

    #[test]
    fn tampered_summary_is_counted_as_failed() {
        let good = summary();
        let mut tampered = good.clone();
        tampered.accepted_requests += 1;

        let mut checks = Checks::default();
        checks.conservation(&[good.clone(), tampered.clone()]);
        let first = digest(&[good]);
        checks.check(digest(&[tampered]) == first, || "digest moved".into());

        assert_eq!(checks.attempted, 3);
        assert_eq!(checks.failed(), 2, "{:?}", checks.failures);
        let line = result_line(&checks, &[]);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":2,"));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0, 2.0]), (1.5, 4.5));
    }

    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    let better = if d.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (d.name.into(), d.unit.into(), better.into(), d.bound)
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }
}

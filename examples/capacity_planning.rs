//! Offline capacity planning with the analytic models — no simulation.
//!
//! Answers two provisioning questions with the same queueing machinery
//! the adaptive controller uses at runtime:
//!
//! 1. how many instances does a target load need (Algorithm 1)?
//! 2. how wrong would the paper-verbatim M/M/1/k model be (backends)?
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use vmprov::core::modeler::{ModelerOptions, PerformanceModeler, SizingInputs};
use vmprov::core::QosTargets;
use vmprov::queueing::{GiM1K, InterarrivalKind, GG1K, MM1K};

fn main() {
    let qos = QosTargets::new(0.250, 0.0, 0.80);
    let tm = 0.105; // monitored mean service time
    let scv = 0.00076; // monitored service-time variability

    // 1. Algorithm 1 across a sweep of arrival rates.
    println!("Algorithm 1 sizing (Ts = 250 ms, utilization floor 80%):");
    let modeler = PerformanceModeler::new(qos, 1000, ModelerOptions::default());
    for lambda in [100.0, 400.0, 800.0, 1200.0] {
        let d = modeler.required_instances(&SizingInputs {
            expected_arrival_rate: lambda,
            monitored_service_time: tm,
            service_scv: scv,
            current_instances: 10,
        });
        println!(
            "  λ = {lambda:>6.0} req/s → m = {:>3} instances \
             (ρ = {:.2}, predicted blocking {:.2e}, W = {:.0} ms, {} iterations)",
            d.instances,
            lambda * tm / f64::from(d.instances),
            d.predicted.blocking_probability,
            1e3 * d.predicted.mean_response_time,
            d.iterations,
        );
    }

    // 2. Why the backend matters: per-instance blocking at ρ = 0.8,
    //    k = 2, under the three queueing views of the same system.
    println!("\nPer-instance blocking at ρ = 0.8, k = 2 (150-way round-robin):");
    let mm = MM1K::new(0.8, 1.0, 2).unwrap().blocking_probability();
    let gim = GiM1K::new(0.8, 1.0, 2, InterarrivalKind::Erlang { stages: 150 })
        .unwrap()
        .blocking_probability();
    let gg = GG1K::round_robin_split(120.0, 150, 1.0, scv, 2)
        .unwrap()
        .blocking_probability();
    println!("  M/M/1/2 (paper verbatim)            : {mm:.3}");
    println!("  E150/M/1/2 (smooth arrivals only)   : {gim:.3}");
    println!("  GI/G/1/2 two-moment (arr + service) : {gg:.2e}");
    println!("  → only the two-moment view matches the ≈0 rejection the");
    println!("    simulation (and the paper's results) actually show.");

    assert!(mm > 0.25 && gg < 1e-6);
}

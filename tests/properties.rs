//! Property-based tests over the public API: invariants that must hold
//! for *arbitrary* parameters, not just the evaluation's.

use vmprov::core::dispatch::{Dispatcher, InstanceView, LeastOutstanding, RoundRobin};
use vmprov::core::modeler::{ModelerOptions, PerformanceModeler, SizingInputs};
use vmprov::core::QosTargets;
use vmprov::des::{EventQueue, SimTime};
use vmprov::queueing::{GiM1K, InterarrivalKind, GG1K, MM1K};
use vmprov_check::{cases, Gen};

#[test]
fn mm1k_metrics_always_valid() {
    cases(128, |g: &mut Gen| {
        let lambda = g.f64_in(0.01..50.0);
        let mu = g.f64_in(0.01..50.0);
        let k = g.u32_in(1..40);
        let m = MM1K::new(lambda, mu, k).unwrap().metrics();
        assert!(m.validate().is_ok(), "{m:?}: {:?}", m.validate());
        // Accepted response bounded by k services.
        assert!(m.mean_response_time <= f64::from(k) / mu + 1e-9);
        // State probabilities normalise.
        let model = MM1K::new(lambda, mu, k).unwrap();
        let total: f64 = (0..=k).map(|n| model.prob_n(n)).sum();
        assert!((total - 1.0).abs() < 1e-8);
    });
}

#[test]
fn mm1k_blocking_monotone_in_lambda() {
    cases(128, |g: &mut Gen| {
        let l1 = g.f64_in(0.01..20.0);
        let delta = g.f64_in(0.0..20.0);
        let mu = g.f64_in(0.1..10.0);
        let k = g.u32_in(1..20);
        let a = MM1K::new(l1, mu, k).unwrap().blocking_probability();
        let b = MM1K::new(l1 + delta, mu, k).unwrap().blocking_probability();
        assert!(b >= a - 1e-12);
    });
}

#[test]
fn gim1k_reduces_to_mm1k_for_poisson() {
    cases(128, |g: &mut Gen| {
        let lambda = g.f64_in(0.05..5.0);
        let k = g.u32_in(1..15);
        let gi = GiM1K::new(lambda, 1.0, k, InterarrivalKind::Exponential).unwrap();
        let mm = MM1K::new(lambda, 1.0, k).unwrap();
        assert!((gi.blocking_probability() - mm.blocking_probability()).abs() < 1e-7);
    });
}

#[test]
fn gim1k_smoothing_never_hurts() {
    cases(128, |g: &mut Gen| {
        let lambda = g.f64_in(0.05..3.0);
        let k = g.u32_in(1..10);
        let stages = g.u32_in(2..64);
        // Smoother (Erlang) arrivals never block more than Poisson.
        let poisson = GiM1K::new(lambda, 1.0, k, InterarrivalKind::Exponential).unwrap();
        let erlang = GiM1K::new(lambda, 1.0, k, InterarrivalKind::Erlang { stages }).unwrap();
        assert!(erlang.blocking_probability() <= poisson.blocking_probability() + 1e-9);
    });
}

#[test]
fn gg1k_metrics_always_valid() {
    cases(128, |g: &mut Gen| {
        let rho = g.f64_in(0.01..3.0);
        let ca2 = g.f64_in(0.0..2.0);
        let cs2 = g.f64_in(0.0..2.0);
        let k = g.u32_in(1..20);
        let q = GG1K::new(rho, 1.0, ca2, cs2, k).unwrap();
        let m = q.metrics();
        assert!(m.validate().is_ok(), "{m:?}: {:?}", m.validate());
        let total: f64 = (0..=k).map(|n| q.prob_n(n)).sum();
        assert!((total - 1.0).abs() < 1e-8, "normalisation {total}");
    });
}

#[test]
fn algorithm1_always_terminates_in_bounds() {
    cases(128, |g: &mut Gen| {
        let lambda = g.f64_in(0.1..5_000.0);
        let tm = g.f64_in(0.001..10.0);
        let current = g.u32_in(1..2_000);
        let max_vms = g.u32_in(1..5_000);
        let qos = QosTargets::new(tm * 3.0, 0.0, 0.80); // k = 3 nominal
        let modeler = PerformanceModeler::new(qos, max_vms, ModelerOptions::default());
        let d = modeler.required_instances(&SizingInputs {
            expected_arrival_rate: lambda,
            monitored_service_time: tm,
            service_scv: 0.01,
            current_instances: current,
        });
        assert!(d.instances >= 1 && d.instances <= max_vms);
        assert!(d.iterations <= 200);
        // If the cap allows ρ ≤ 0.9, the returned size must meet QoS.
        let feasible = lambda * tm / f64::from(max_vms) <= 0.9;
        if feasible {
            assert!(
                d.predicted.blocking_probability <= 1e-3 + 1e-9,
                "λ={lambda} tm={tm} m={} blocking {}",
                d.instances,
                d.predicted.blocking_probability
            );
        }
    });
}

#[test]
fn algorithm1_monotone_enough_in_load() {
    cases(128, |g: &mut Gen| {
        let lambda = g.f64_in(1.0..1_000.0);
        let factor = g.f64_in(1.5..4.0);
        // Doubling-plus load never yields a smaller pool (same start).
        let qos = QosTargets::new(0.25, 0.0, 0.80);
        let modeler = PerformanceModeler::new(qos, 100_000, ModelerOptions::default());
        let size = |l: f64| {
            modeler
                .required_instances(&SizingInputs {
                    expected_arrival_rate: l,
                    monitored_service_time: 0.105,
                    service_scv: 0.001,
                    current_instances: 64,
                })
                .instances
        };
        assert!(size(lambda * factor) >= size(lambda));
    });
}

#[test]
fn eq1_capacity_respects_response_bound() {
    cases(128, |g: &mut Gen| {
        let ts = g.f64_in(0.01..100.0);
        let tr = ts * g.f64_in(0.001..1.5);
        let qos = QosTargets::new(ts, 0.0, 0.8);
        let k = qos.queue_capacity(tr);
        assert!(k >= 1);
        // Either k·Tr ≤ Ts, or Tr alone exceeds Ts and k was floored at 1.
        assert!(f64::from(k) * tr <= ts + 1e-9 || (k == 1 && tr > ts - 1e-9));
    });
}

#[test]
fn dispatchers_never_pick_full_or_inactive() {
    cases(128, |g: &mut Gen| {
        let views: Vec<InstanceView> = g.vec(0..20, |g| InstanceView {
            in_system: g.u32_in(0..4),
            capacity: 3,
            accepting: g.chance(0.5),
        });
        let pointer_moves = g.usize_in(0..5);
        let mut rr = RoundRobin::new();
        let mut lo = LeastOutstanding::new();
        for i in 0..=pointer_moves {
            let u = i as f64 / (pointer_moves + 1) as f64;
            for pick in [rr.pick(&views, u), lo.pick(&views, u)] {
                match pick {
                    Some(idx) => assert!(views[idx].has_room()),
                    None => assert!(views.iter().all(|v| !v.has_room())),
                }
            }
        }
    });
}

#[test]
fn event_queue_pops_sorted_stable() {
    cases(128, |g: &mut Gen| {
        let times = g.vec(1..300, |g| g.f64_in(0.0..1e6));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((pt, pid)) = prev {
                assert!(t >= pt, "went backwards");
                if t == pt {
                    // FIFO within equal timestamps: ids increase.
                    assert!(id > pid, "broke same-time FIFO");
                }
            }
            prev = Some((t, id));
        }
        assert!(q.is_empty());
    });
}

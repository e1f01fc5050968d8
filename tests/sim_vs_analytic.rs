//! Cross-validation: the analytic queueing models against discrete-event
//! simulation — the evidence that the performance modeler's predictions
//! describe the system the simulator actually runs.

use vmprov::des::dist::{Distribution, Exponential};
use vmprov::des::{Engine, RngFactory, Scheduler, SimRng, SimTime, World};
use vmprov::queueing::{GiM1K, InterarrivalKind, GG1K, MM1K};

/// A GI/M/1/K simulation: renewal arrivals (drawn by a closure),
/// exponential service, capacity K.
struct QueueWorld {
    in_system: u32,
    k: u32,
    service: Exponential,
    draw_interarrival: Box<dyn FnMut(&mut SimRng) -> f64>,
    rng_arrivals: SimRng,
    rng_service: SimRng,
    arrivals: u64,
    blocked: u64,
    completed: u64,
    total_response: f64,
    /// Arrival times of requests in FIFO order.
    fifo: std::collections::VecDeque<f64>,
}

enum Ev {
    Arrival,
    Departure,
}

impl World for QueueWorld {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
        match ev {
            Ev::Arrival => {
                self.arrivals += 1;
                if self.in_system >= self.k {
                    self.blocked += 1;
                } else {
                    self.in_system += 1;
                    self.fifo.push_back(now.as_secs());
                    if self.in_system == 1 {
                        let s = self.service.sample(&mut self.rng_service);
                        sched.after(s, Ev::Departure);
                    }
                }
                let gap = (self.draw_interarrival)(&mut self.rng_arrivals);
                sched.after(gap, Ev::Arrival);
            }
            Ev::Departure => {
                self.in_system -= 1;
                self.completed += 1;
                let arrived = self.fifo.pop_front().expect("departure without arrival");
                self.total_response += now.as_secs() - arrived;
                if self.in_system > 0 {
                    let s = self.service.sample(&mut self.rng_service);
                    sched.after(s, Ev::Departure);
                }
            }
        }
    }
}

/// Runs the queue for `horizon` and returns (blocking fraction, mean
/// response of accepted requests).
fn simulate_queue(
    k: u32,
    mu: f64,
    draw_interarrival: Box<dyn FnMut(&mut SimRng) -> f64>,
    horizon: f64,
    seed: u64,
) -> (f64, f64) {
    let f = RngFactory::new(seed);
    let world = QueueWorld {
        in_system: 0,
        k,
        service: Exponential::new(mu),
        draw_interarrival,
        rng_arrivals: f.stream("arr"),
        rng_service: f.stream("svc"),
        arrivals: 0,
        blocked: 0,
        completed: 0,
        total_response: 0.0,
        fifo: std::collections::VecDeque::new(),
    };
    let mut engine = Engine::new(world);
    engine.schedule(SimTime::ZERO, Ev::Arrival);
    engine.run_until(SimTime::from_secs(horizon));
    let w = engine.world();
    (
        w.blocked as f64 / w.arrivals as f64,
        w.total_response / w.completed as f64,
    )
}

#[test]
fn mm1k_closed_form_matches_simulation() {
    for (lambda, k) in [(0.5, 2u32), (0.8, 2), (0.8, 5), (1.5, 3)] {
        let model = MM1K::new(lambda, 1.0, k).unwrap();
        let exp = Exponential::new(lambda);
        let (blocking, response) =
            simulate_queue(k, 1.0, Box::new(move |rng| exp.sample(rng)), 400_000.0, 42);
        let m = model.metrics();
        assert!(
            (blocking - m.blocking_probability).abs() < 0.01,
            "λ={lambda} k={k}: sim blocking {blocking} vs analytic {}",
            m.blocking_probability
        );
        assert!(
            (response - m.mean_response_time).abs() / m.mean_response_time < 0.03,
            "λ={lambda} k={k}: sim W {response} vs analytic {}",
            m.mean_response_time
        );
    }
}

#[test]
fn erlang_arrival_embedded_chain_matches_simulation() {
    // E_m/M/1/K: the exact embedded-chain solution against a renewal
    // simulation with Erlang-m interarrivals.
    for (m_stages, rho) in [(4u32, 0.8), (16, 0.8), (16, 1.2)] {
        let lambda = rho;
        let stage = Exponential::new(f64::from(m_stages) * lambda);
        let model = GiM1K::new(
            lambda,
            1.0,
            2,
            InterarrivalKind::Erlang { stages: m_stages },
        )
        .unwrap();
        let (blocking, _) = simulate_queue(
            2,
            1.0,
            Box::new(move |rng| (0..m_stages).map(|_| stage.sample(rng)).sum()),
            400_000.0,
            7,
        );
        assert!(
            (blocking - model.blocking_probability()).abs() < 0.012,
            "E{m_stages} ρ={rho}: sim {blocking} vs chain {}",
            model.blocking_probability()
        );
    }
}

#[test]
fn gg1k_diffusion_approximation_is_usable() {
    // The two-moment approximation against an E16/M/1/4 simulation
    // (ca² = 1/16, cs² = 1): accurate to within several points of
    // blocking, and errs on the *conservative* side (over-predicts), so
    // sizing decisions made from it never under-provision.
    for rho in [0.5, 0.8, 0.95] {
        let lambda = rho;
        let stage = Exponential::new(16.0 * lambda);
        let approx = GG1K::new(lambda, 1.0, 1.0 / 16.0, 1.0, 4)
            .unwrap()
            .blocking_probability();
        let (blocking, _) = simulate_queue(
            4,
            1.0,
            Box::new(move |rng| (0..16).map(|_| stage.sample(rng)).sum()),
            300_000.0,
            9,
        );
        // Near saturation the critical-window artifact roughly doubles
        // the prediction; still the right order of magnitude.
        assert!(
            (blocking - approx).abs() < 0.12,
            "ρ={rho}: sim {blocking} vs diffusion {approx}"
        );
        assert!(
            approx >= blocking - 0.01,
            "ρ={rho}: approximation must stay conservative (sim {blocking}, approx {approx})"
        );
    }
}

#[test]
fn paper_regime_has_negligible_blocking_in_both_views() {
    // The load-bearing claim of DESIGN.md §3: in the simulated regime
    // (smooth arrivals, near-deterministic service) blocking is ≈0 at
    // ρ = 0.8 while verbatim M/M/1/2 predicts ~26%. Simulate an
    // E32/D-ish/1/2 queue: Erlang-32 arrivals, service U(1.0, 1.1)/1.05.
    let lambda = 0.8 / 1.05; // ρ = λ·E[S] = 0.8 with E[S] = 1.05
    let stage = Exponential::new(32.0 * lambda);

    struct DetWorld {
        in_system: u32,
        stage: Exponential,
        rng_a: SimRng,
        rng_s: SimRng,
        arrivals: u64,
        blocked: u64,
    }
    enum E2 {
        Arr,
        Dep,
    }
    impl World for DetWorld {
        type Event = E2;
        fn handle(&mut self, _now: SimTime, ev: E2, sched: &mut Scheduler<'_, E2>) {
            match ev {
                E2::Arr => {
                    self.arrivals += 1;
                    if self.in_system >= 2 {
                        self.blocked += 1;
                    } else {
                        self.in_system += 1;
                        if self.in_system == 1 {
                            let s = self.rng_s.uniform(1.0, 1.1);
                            sched.after(s, E2::Dep);
                        }
                    }
                    let gap: f64 = (0..32).map(|_| self.stage.sample(&mut self.rng_a)).sum();
                    sched.after(gap, E2::Arr);
                }
                E2::Dep => {
                    self.in_system -= 1;
                    if self.in_system > 0 {
                        let s = self.rng_s.uniform(1.0, 1.1);
                        sched.after(s, E2::Dep);
                    }
                }
            }
        }
    }
    let f = RngFactory::new(13);
    let mut engine = Engine::new(DetWorld {
        in_system: 0,
        stage,
        rng_a: f.stream("a"),
        rng_s: f.stream("s"),
        arrivals: 0,
        blocked: 0,
    });
    engine.schedule(SimTime::ZERO, E2::Arr);
    engine.run_until(SimTime::from_secs(300_000.0));
    let w = engine.world();
    let sim_blocking = w.blocked as f64 / w.arrivals as f64;

    let verbatim = MM1K::new(0.8 / 1.05, 1.0 / 1.05, 2)
        .unwrap()
        .blocking_probability();
    let two_moment = GG1K::new(lambda, 1.05, 1.0 / 32.0, 0.00076, 2)
        .unwrap()
        .blocking_probability();

    assert!(sim_blocking < 0.02, "simulated blocking {sim_blocking}");
    assert!(two_moment < 0.01, "two-moment {two_moment}");
    assert!(verbatim > 0.25, "verbatim M/M/1/2 {verbatim}");
}

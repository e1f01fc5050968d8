//! Property-based tests of the simulation kernel.

use vmprov_check::{cases, Gen};
use vmprov_des::dist::{Exponential, Weibull};
use vmprov_des::special::ln_gamma;
use vmprov_des::stats::{LogHistogram, OnlineStats, TimeWeighted};
use vmprov_des::{Engine, EventHandle, EventQueue, RngFactory, Scheduler, SimTime, World};

#[test]
fn samples_stay_in_support() {
    cases(96, |g: &mut Gen| {
        let seed = g.u64();
        let rate = g.f64_in(0.01..100.0);
        let shape = g.f64_in(0.2..8.0);
        let scale = g.f64_in(0.01..100.0);
        let mut rng = RngFactory::new(seed).stream("support");
        for _ in 0..50 {
            assert!(Exponential::new(rate).sample(&mut rng) >= 0.0);
            assert!(Weibull::new(shape, scale).sample(&mut rng) >= 0.0);
        }
    });
}

#[test]
fn weibull_cdf_survival_complement() {
    cases(96, |g: &mut Gen| {
        let shape = g.f64_in(0.2..8.0);
        let scale = g.f64_in(0.01..100.0);
        let x = g.f64_in(0.0..500.0);
        let d = Weibull::new(shape, scale);
        assert!((d.cdf(x) + d.survival(x) - 1.0).abs() < 1e-12);
        assert!(d.survival(x) >= 0.0 && d.survival(x) <= 1.0);
        // Survival is non-increasing.
        assert!(d.survival(x) >= d.survival(x + 1.0) - 1e-12);
    });
}

#[test]
fn gamma_recurrence_random() {
    cases(96, |g: &mut Gen| {
        // Γ(x+1) = x·Γ(x)
        let x = g.f64_in(0.05..60.0);
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        assert!((lhs - rhs).abs() < 1e-9, "x = {x}: {lhs} vs {rhs}");
    });
}

#[test]
fn online_stats_bounds_and_ordering() {
    cases(96, |g: &mut Gen| {
        let xs = g.vec(1..100, |g| g.f64_in(-1e9..1e9));
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert!(s.min() <= s.mean() + 1e-6 * s.mean().abs().max(1.0));
        assert!(s.max() >= s.mean() - 1e-6 * s.mean().abs().max(1.0));
        assert!(s.variance() >= 0.0);
        assert_eq!(s.count(), xs.len() as u64);
    });
}

#[test]
fn time_weighted_average_within_extrema() {
    cases(96, |g: &mut Gen| {
        let steps = g.vec(1..50, |g| (g.f64_in(0.0..100.0), g.f64_in(-50.0..50.0)));
        let mut t = 0.0;
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        for &(dt, v) in &steps {
            t += dt;
            tw.update(SimTime::from_secs(t), v);
        }
        let avg = tw.average(SimTime::from_secs(t + 1.0));
        assert!(avg >= tw.min() - 1e-9 && avg <= tw.max() + 1e-9);
        // Integral consistency.
        let integral = tw.integral(SimTime::from_secs(t + 1.0));
        assert!((integral - avg * (t + 1.0)).abs() < 1e-6 * integral.abs().max(1.0));
    });
}

#[test]
fn histogram_quantiles_are_monotone() {
    cases(96, |g: &mut Gen| {
        let values = g.vec(1..200, |g| g.f64_in(1e-5..1e4));
        let mut h = LogHistogram::for_latencies();
        for &v in &values {
            h.record(v);
        }
        let mut prev = 0.0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let x = h.quantile(q).unwrap();
            assert!(x >= prev, "quantile({q}) = {x} < {prev}");
            prev = x;
        }
        assert_eq!(h.count(), values.len() as u64);
    });
}

#[test]
fn event_queue_is_a_sorting_network() {
    cases(96, |g: &mut Gen| {
        let times = g.vec(0..200, |g| g.f64_in(0.0..1e9));
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_secs(t), ());
        }
        let mut popped = Vec::with_capacity(times.len());
        while let Some((t, ())) = q.pop() {
            popped.push(t.as_secs());
        }
        assert_eq!(popped, sorted);
    });
}

#[test]
fn rng_streams_reproducible() {
    cases(96, |g: &mut Gen| {
        let seed = g.u64();
        let label = g.ident(1..13);
        let f = RngFactory::new(seed);
        let mut a = f.stream(&label);
        let mut b = f.stream(&label);
        for _ in 0..20 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    });
}

/// Under arbitrary interleavings of schedule, cancel, pop, bounded pop
/// and peek — including bursts at identical timestamps — the event
/// queue agrees with a sorted reference list at every step: every pop
/// and bounded pop is the list's (earliest time first, equal times in
/// scheduling order), and `peek_time` and `len` match the list's after
/// every operation. A handle whose event was popped or cancelled does
/// not cancel.
#[test]
fn event_queue_matches_the_sorted_reference_list() {
    /// Removes and returns the reference list's next event, if it fires
    /// at or before `end`.
    fn model_pop(model: &mut Vec<(SimTime, u64)>, end: SimTime) -> Option<(SimTime, u64)> {
        let i = (0..model.len()).min_by_key(|&i| (model[i].0, model[i].1))?;
        (model[i].0 <= end).then(|| model.swap_remove(i))
    }
    cases(256, |g: &mut Gen| {
        let mut model: Vec<(SimTime, u64)> = Vec::new();
        let mut q = EventQueue::new();
        let mut clock = 0.0_f64;
        // Live handles, keyed by a unique payload so a pop can retire
        // exactly the entry it delivered.
        let mut live: Vec<(u64, EventHandle)> = Vec::new();
        let mut dead: Vec<EventHandle> = Vec::new();
        let mut next_payload = 0_u64;
        let mut push = |q: &mut EventQueue<u64>,
                        live: &mut Vec<(u64, EventHandle)>,
                        model: &mut Vec<(SimTime, u64)>,
                        t: SimTime| {
            let p = next_payload;
            next_payload += 1;
            live.push((p, q.schedule(t, p)));
            model.push((t, p));
        };
        let retire = |live: &mut Vec<(u64, EventHandle)>,
                      dead: &mut Vec<EventHandle>,
                      popped: Option<(SimTime, u64)>| {
            if let Some((_, payload)) = popped {
                if let Some(k) = live.iter().position(|&(p, _)| p == payload) {
                    dead.push(live.swap_remove(k).1);
                }
            }
        };
        let n_ops = g.usize_in(10..400);
        for _ in 0..n_ops {
            match g.usize_in(0..13) {
                // Schedule at a fresh future time.
                0..=3 => {
                    let t = SimTime::from_secs(clock + g.f64_in(0.0..8.0));
                    push(&mut q, &mut live, &mut model, t);
                }
                // Burst: several events at one identical timestamp.
                4 => {
                    let t = SimTime::from_secs(clock + g.f64_in(0.0..8.0));
                    for _ in 0..g.usize_in(2..6) {
                        push(&mut q, &mut live, &mut model, t);
                    }
                }
                // Cancel a random live handle.
                5 | 6 if !live.is_empty() => {
                    let k = g.usize_in(0..live.len());
                    let (p, h) = live.swap_remove(k);
                    assert!(q.cancel(h));
                    dead.push(h);
                    model.retain(|&(_, x)| x != p);
                }
                // Pop.
                7 | 8 => {
                    let a = q.pop();
                    assert_eq!(a, model_pop(&mut model, SimTime::from_secs(f64::MAX)));
                    if let Some((t, _)) = a {
                        clock = t.as_secs();
                    }
                    retire(&mut live, &mut dead, a);
                }
                // Bounded pop, the bound often exactly on a pending time.
                9 | 10 => {
                    let end = match q.peek_time() {
                        Some(t) if g.usize_in(0..2) == 0 => t,
                        _ => SimTime::from_secs(clock + g.f64_in(0.0..4.0)),
                    };
                    let a = q.pop_until(end);
                    assert_eq!(a, model_pop(&mut model, end));
                    if let Some((t, _)) = a {
                        assert!(t <= end);
                        clock = t.as_secs();
                    }
                    retire(&mut live, &mut dead, a);
                }
                // Cancel a handle whose event already left.
                11 if !dead.is_empty() => {
                    let h = dead[g.usize_in(0..dead.len())];
                    assert!(!q.cancel(h));
                }
                // Peek alone (and the arms above with nothing to
                // cancel); checked below, as after every step.
                _ => {}
            }
            let earliest = model.iter().map(|&(t, _)| t).reduce(SimTime::min);
            assert_eq!(q.peek_time(), earliest);
            assert_eq!(q.len(), model.len());
            assert_eq!(q.is_empty(), model.is_empty());
        }
        // Drain: the queue and the list agree to the last event.
        loop {
            let a = q.pop();
            assert_eq!(a, model_pop(&mut model, SimTime::from_secs(f64::MAX)));
            assert_eq!(q.len(), model.len());
            if a.is_none() {
                break;
            }
        }
    });
}

/// Payload flag of a dispatched event (the simulator's arrivals).
const DISPATCHED: u64 = 1 << 63;
/// Payload flag of an event a handler scheduled.
const CHILD: u64 = 1 << 62;

/// What handling `ev` at `now` schedules, the `handled`-th event of the
/// run: a root whose id is a multiple of 3 schedules a child at its own
/// instant, one that is 1 modulo 5 a child half a second later, and
/// every other dispatched event a child at its own instant. Children
/// schedule nothing.
fn follow_ups(now: f64, ev: u64, handled: usize, next_child: &mut u64) -> Vec<(f64, u64)> {
    let mut at = |t: f64| {
        *next_child += 1;
        (t, CHILD | *next_child)
    };
    if ev & DISPATCHED != 0 {
        if handled.is_multiple_of(2) {
            return vec![at(now)];
        }
    } else if ev & CHILD == 0 {
        let mut out = Vec::new();
        if ev.is_multiple_of(3) {
            out.push(at(now));
        }
        if ev % 5 == 1 {
            out.push(at(now + 0.5));
        }
        return out;
    }
    Vec::new()
}

/// A model that logs every event it handles and schedules its
/// [`follow_ups`].
struct Log {
    handled: Vec<(f64, u64)>,
    next_child: u64,
}

impl World for Log {
    type Event = u64;
    fn handle(&mut self, now: SimTime, ev: u64, sched: &mut Scheduler<'_, u64>) {
        let n = self.handled.len();
        self.handled.push((now.as_secs(), ev));
        for (t, child) in follow_ups(now.as_secs(), ev, n, &mut self.next_child) {
            sched.at(SimTime::from_secs(t), child);
        }
    }
}

/// The reference engine: a list of pending `(time, dispatched, seq,
/// payload)` handled in `(time, dispatched, seq)` order, so at one
/// instant every scheduled event goes first, in scheduling order.
struct Reference {
    pending: Vec<(f64, bool, u64, u64)>,
    seq: u64,
    now: f64,
    log: Log,
}

impl Reference {
    fn push(&mut self, t: f64, dispatched: bool, payload: u64) {
        self.pending.push((t, dispatched, self.seq, payload));
        self.seq += 1;
    }

    /// Handles the earliest pending entry if `due` accepts its time.
    fn step(&mut self, due: impl Fn(f64) -> bool) -> bool {
        let Some(i) = (0..self.pending.len()).min_by(|&a, &b| {
            let (ta, da, sa, _) = self.pending[a];
            let (tb, db, sb, _) = self.pending[b];
            ta.total_cmp(&tb).then(da.cmp(&db)).then(sa.cmp(&sb))
        }) else {
            return false;
        };
        if !due(self.pending[i].0) {
            return false;
        }
        let (t, _, _, ev) = self.pending.swap_remove(i);
        self.now = t;
        let n = self.log.handled.len();
        self.log.handled.push((t, ev));
        for (ct, child) in follow_ups(t, ev, n, &mut self.log.next_child) {
            self.push(ct, false, child);
        }
        true
    }
}

/// Under arbitrary mixes of `schedule`, `cancel`, dispatched runs,
/// bounded runs and single steps — with handlers that schedule at their
/// own instant — the engine handles events in the order of a sorted
/// reference in which dispatched times lose ties: earliest first, and
/// at one instant every scheduled event before a dispatched one,
/// including events that an earlier dispatched time at that instant
/// scheduled. The log, `steps`, `pending` and `now` agree after every
/// operation, and a dispatch returns the events it handled.
#[test]
fn dispatched_runs_lose_every_tie_to_scheduled_events() {
    cases(256, |g: &mut Gen| {
        let mut engine = Engine::new(Log {
            handled: Vec::new(),
            next_child: 0,
        });
        let mut reference = Reference {
            pending: Vec::new(),
            seq: 0,
            now: 0.0,
            log: Log {
                handled: Vec::new(),
                next_child: 0,
            },
        };
        let mut roots: Vec<(u64, EventHandle)> = Vec::new();
        let mut next_root = 0_u64;
        // Every time lies on a quarter-second grid, so ties are common.
        let ahead = |g: &mut Gen, now: f64, steps: usize| now + 0.25 * g.usize_in(0..steps) as f64;
        for slice in 0..g.usize_in(5..80) as u64 {
            let now = reference.now;
            match g.usize_in(0..10) {
                0..=2 => {
                    for _ in 0..g.usize_in(1..4) {
                        let t = ahead(g, now, 12);
                        next_root += 1;
                        let h = engine.schedule(SimTime::from_secs(t), next_root);
                        roots.push((next_root, h));
                        reference.push(t, false, next_root);
                    }
                }
                3 if !roots.is_empty() => {
                    let (id, h) = roots.swap_remove(g.usize_in(0..roots.len()));
                    let pending = reference.pending.iter().position(|e| e.3 == id);
                    assert_eq!(engine.cancel(h), pending.is_some());
                    if let Some(i) = pending {
                        reference.pending.swap_remove(i);
                    }
                }
                4..=6 => {
                    let mut t = ahead(g, now, 8);
                    let times: Vec<f64> = (0..g.usize_in(1..20))
                        .map(|_| {
                            t = ahead(g, t, 3);
                            t
                        })
                        .collect();
                    let event = DISPATCHED | slice;
                    let sim_times: Vec<SimTime> =
                        times.iter().map(|&t| SimTime::from_secs(t)).collect();
                    let handled = engine.dispatch_run(&sim_times, event);
                    let before = reference.log.handled.len();
                    for &t in &times {
                        reference.push(t, true, event);
                    }
                    while reference.pending.iter().any(|e| e.3 == event) {
                        assert!(reference.step(|_| true));
                    }
                    assert_eq!(handled as usize, reference.log.handled.len() - before);
                }
                7 => {
                    let end = ahead(g, now, 8);
                    engine.run_until(SimTime::from_secs(end));
                    while reference.step(|t| t <= end) {}
                    reference.now = reference.now.max(end);
                }
                8 => {
                    let bound = ahead(g, now, 8);
                    engine.run_before(SimTime::from_secs(bound));
                    while reference.step(|t| t < bound) {}
                }
                _ => assert_eq!(engine.step(), reference.step(|_| true)),
            }
            assert_eq!(engine.world().handled, reference.log.handled);
            assert_eq!(engine.steps(), reference.log.handled.len() as u64);
            assert_eq!(engine.pending(), reference.pending.len());
            assert_eq!(engine.now().as_secs(), reference.now);
        }
        engine.run();
        while reference.step(|_| true) {}
        assert_eq!(engine.world().handled, reference.log.handled);
    });
}

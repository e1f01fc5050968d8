//! The simulation engine: a clock, a future-event list, and a world.
//!
//! A simulation is a [`World`] (all mutable model state plus an event type)
//! driven by an [`Engine`]. The engine pops the earliest event, advances
//! the clock, and hands the event to [`World::handle`], which may schedule
//! further events through the [`Scheduler`] it receives.
//!
//! ```
//! use vmprov_des::{Engine, Scheduler, SimTime, World};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl World for Counter {
//!     type Event = ();
//!     fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<'_, ()>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             sched.at(now + 1.0, ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.schedule(SimTime::ZERO, ());
//! engine.run();
//! assert_eq!(engine.world().fired, 10);
//! assert_eq!(engine.now().as_secs(), 9.0);
//! ```

use crate::event::{EventHandle, EventQueue};
use crate::time::SimTime;

/// Model state driven by an [`Engine`].
pub trait World {
    /// The event vocabulary of this model.
    type Event;

    /// Reacts to `event` occurring at `now`, scheduling follow-up events
    /// through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Handle through which event handlers schedule future events.
///
/// Borrowed view over the engine's event queue, so handlers cannot touch
/// the clock or pop events out of order.
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
}

impl<'a, E> Scheduler<'a, E> {
    /// Schedules `event` at absolute time `time`, returning a handle
    /// that can later [`cancel`](Self::cancel) it.
    ///
    /// # Panics
    /// Panics if `time` is earlier than the current clock (causality).
    #[inline]
    pub fn at(&mut self, time: SimTime, event: E) -> EventHandle {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            time
        );
        self.queue.schedule(time, event)
    }

    /// Schedules `event` after a relative delay of `delay` seconds.
    #[inline]
    pub fn after(&mut self, delay: f64, event: E) -> EventHandle {
        debug_assert!(delay >= 0.0, "negative delay {delay}");
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedules `event` at the current instant (it will fire after all
    /// other events already scheduled for this instant with
    /// [`at`](Self::at), `after` or `now`, but before any lane entry
    /// at this instant, released with [`Engine::schedule_run`]).
    #[inline]
    pub fn now(&mut self, event: E) -> EventHandle {
        self.queue.schedule(self.now, event)
    }

    /// Cancels a pending event scheduled earlier. Returns whether an
    /// entry was withdrawn: `false` if the event already fired or was
    /// cancelled.
    #[inline]
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// The current simulation time.
    #[inline]
    pub fn clock(&self) -> SimTime {
        self.now
    }

    /// Number of pending events (including ones scheduled by this handler).
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Discrete-event simulation engine.
pub struct Engine<W: World> {
    queue: EventQueue<W::Event>,
    now: SimTime,
    world: W,
    steps: u64,
}

impl<W: World> Engine<W> {
    /// Creates an engine at time zero around `world`.
    pub fn new(world: W) -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            world,
            steps: 0,
        }
    }

    /// Creates an engine at time zero around `world`, recycling `queue`
    /// from a previous run so its heap storage is reused instead of
    /// reallocated. The queue is cleared first; any events still
    /// pending in it are dropped.
    ///
    /// Recycling never changes what a run computes: pop order is
    /// `(time, insertion-id)` — a total order independent of the
    /// queue's retained capacity.
    pub fn with_recycled_queue(world: W, mut queue: EventQueue<W::Event>) -> Self {
        queue.clear();
        Engine {
            queue,
            now: SimTime::ZERO,
            world,
            steps: 0,
        }
    }

    /// Schedules an event from outside a handler (e.g. initial events).
    pub fn schedule(&mut self, time: SimTime, event: W::Event) -> EventHandle {
        assert!(time >= self.now, "cannot schedule into the past");
        self.queue.schedule(time, event)
    }

    /// Releases one entry carrying `event` at every time in `times`
    /// into the queue's lane (see [`EventQueue::schedule_run`] for the
    /// contract: one payload per lane, sorted releases cheapest).
    /// Lane entries tie-break *late*: at an equal timestamp they fire
    /// after every event placed with [`Scheduler::at`],
    /// [`Scheduler::after`] or [`Scheduler::now`], even one scheduled
    /// later. They cannot be cancelled (no handles are returned). A
    /// caller that feeds the lane in slices releases each one before
    /// the clock passes its earliest time.
    ///
    /// # Panics
    /// Panics if the earliest time is earlier than the current clock.
    pub fn schedule_run(&mut self, times: &[SimTime], event: W::Event)
    where
        W::Event: Clone,
    {
        self.queue.release_run(times, event, Some(self.now));
    }

    /// Cancels a pending event from outside a handler.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Current simulation clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Shared access to the model.
    #[inline]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the model (for setup and post-run inspection).
    #[inline]
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the engine, returning the model.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Consumes the engine, returning the model *and* the event queue so
    /// its storage can be recycled into a later
    /// [`with_recycled_queue`](Self::with_recycled_queue) engine.
    pub fn into_parts(self) -> (W, EventQueue<W::Event>) {
        (self.world, self.queue)
    }

    /// Advances the clock to `time` and hands `event` to the world.
    #[inline]
    fn dispatch(&mut self, time: SimTime, event: W::Event) {
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.steps += 1;
        let mut sched = Scheduler {
            queue: &mut self.queue,
            now: time,
        };
        self.world.handle(time, event, &mut sched);
    }

    /// Processes a single event. Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(time, event);
        true
    }

    /// Runs until the event queue drains. Returns events processed.
    pub fn run(&mut self) -> u64 {
        let start = self.steps;
        while self.step() {}
        self.steps - start
    }

    /// Runs until the queue drains or the next event would fire strictly
    /// after `end`. Events scheduled exactly at `end` are processed. The
    /// clock is advanced to `end` on return. Returns events processed.
    pub fn run_until(&mut self, end: SimTime) -> u64 {
        let start = self.steps;
        while let Some((time, event)) = self.queue.pop_until(end) {
            self.dispatch(time, event);
        }
        if self.now < end {
            self.now = end;
        }
        self.steps - start
    }

    /// Processes every event that fires strictly before `bound`, then
    /// pauses. Unlike [`run_until`](Self::run_until) the clock stays at
    /// the last event handled, so a run paused at any sequence of
    /// bounds handles exactly the events, in exactly the order, of one
    /// that never paused. Returns events processed.
    pub fn run_before(&mut self, bound: SimTime) -> u64 {
        let start = self.steps;
        while let Some((time, event)) = self.queue.pop_before(bound) {
            self.dispatch(time, event);
        }
        self.steps - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records the times at which its events fired.
    struct Recorder {
        fired: Vec<(f64, u32)>,
    }

    enum Ev {
        Mark(u32),
        Chain { id: u32, remaining: u32, gap: f64 },
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<'_, Ev>) {
            match ev {
                Ev::Mark(id) => self.fired.push((now.as_secs(), id)),
                Ev::Chain { id, remaining, gap } => {
                    self.fired.push((now.as_secs(), id));
                    if remaining > 0 {
                        sched.after(
                            gap,
                            Ev::Chain {
                                id,
                                remaining: remaining - 1,
                                gap,
                            },
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn processes_in_causal_order() {
        let mut eng = Engine::new(Recorder { fired: vec![] });
        eng.schedule(SimTime::from_secs(2.0), Ev::Mark(2));
        eng.schedule(SimTime::from_secs(1.0), Ev::Mark(1));
        eng.schedule(SimTime::from_secs(3.0), Ev::Mark(3));
        let n = eng.run();
        assert_eq!(n, 3);
        assert_eq!(eng.world().fired, vec![(1.0, 1), (2.0, 2), (3.0, 3)]);
        assert_eq!(eng.now().as_secs(), 3.0);
    }

    #[test]
    fn chained_events_interleave_by_time() {
        let mut eng = Engine::new(Recorder { fired: vec![] });
        eng.schedule(
            SimTime::ZERO,
            Ev::Chain {
                id: 1,
                remaining: 3,
                gap: 2.0,
            },
        );
        eng.schedule(
            SimTime::from_secs(1.0),
            Ev::Chain {
                id: 2,
                remaining: 3,
                gap: 2.0,
            },
        );
        eng.run();
        let ids: Vec<u32> = eng.world().fired.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut eng = Engine::new(Recorder { fired: vec![] });
        for i in 0..10 {
            eng.schedule(SimTime::from_secs(i as f64), Ev::Mark(i));
        }
        let n = eng.run_until(SimTime::from_secs(4.5));
        assert_eq!(n, 5); // events at 0..=4
        assert_eq!(eng.now().as_secs(), 4.5);
        // Events at exactly the boundary are included.
        let n = eng.run_until(SimTime::from_secs(7.0));
        assert_eq!(n, 3); // 5, 6, 7
        let n = eng.run_until(SimTime::from_secs(100.0));
        assert_eq!(n, 2); // 8, 9
        assert_eq!(eng.now().as_secs(), 100.0);
    }

    #[test]
    fn run_before_pauses_without_moving_the_clock() {
        let mut eng = Engine::new(Recorder { fired: vec![] });
        for i in 0..10 {
            eng.schedule(SimTime::from_secs(i as f64), Ev::Mark(i));
        }
        // Strictly before: the event at the bound waits.
        assert_eq!(eng.run_before(SimTime::from_secs(4.0)), 4); // 0..=3
        assert_eq!(eng.now().as_secs(), 3.0, "a paused clock stays put");
        assert_eq!(eng.run_before(SimTime::from_secs(4.0)), 0);
        assert_eq!(eng.run_before(SimTime::from_secs(4.5)), 1); // 4
        assert_eq!(eng.run_until(SimTime::from_secs(100.0)), 5);
        let ids: Vec<u32> = eng.world().fired.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_cancel_pending_events() {
        /// Schedules a timer, then cancels it from a later handler.
        struct Canceller {
            timer: Option<crate::EventHandle>,
            timer_fired: bool,
        }
        enum CEv {
            Arm,
            Timer,
            Disarm,
        }
        impl World for Canceller {
            type Event = CEv;
            fn handle(&mut self, _now: SimTime, ev: CEv, sched: &mut Scheduler<'_, CEv>) {
                match ev {
                    CEv::Arm => self.timer = Some(sched.after(10.0, CEv::Timer)),
                    CEv::Timer => self.timer_fired = true,
                    CEv::Disarm => {
                        let h = self.timer.take().expect("armed");
                        assert!(sched.cancel(h));
                    }
                }
            }
        }
        let mut eng = Engine::new(Canceller {
            timer: None,
            timer_fired: false,
        });
        eng.schedule(SimTime::ZERO, CEv::Arm);
        eng.schedule(SimTime::from_secs(5.0), CEv::Disarm);
        eng.run();
        assert!(!eng.world().timer_fired);
        assert_eq!(eng.now().as_secs(), 5.0, "cancelled timer moved the clock");
    }

    #[test]
    fn recycled_queue_runs_identically_to_fresh() {
        fn drive(mut eng: Engine<Recorder>) -> (Vec<(f64, u32)>, EventQueue<Ev>) {
            eng.schedule(
                SimTime::ZERO,
                Ev::Chain {
                    id: 1,
                    remaining: 50,
                    gap: 1.5,
                },
            );
            eng.schedule(
                SimTime::from_secs(0.25),
                Ev::Chain {
                    id: 2,
                    remaining: 50,
                    gap: 1.5,
                },
            );
            eng.run();
            let (world, queue) = eng.into_parts();
            (world.fired, queue)
        }

        let (fresh, queue) = drive(Engine::new(Recorder { fired: vec![] }));
        // Leave stale pending events in the queue to prove recycling
        // clears them.
        let mut queue = queue;
        queue.schedule(SimTime::from_secs(9999.0), Ev::Mark(99));
        let recycled_engine = Engine::with_recycled_queue(Recorder { fired: vec![] }, queue);
        assert_eq!(recycled_engine.now(), SimTime::ZERO);
        assert_eq!(recycled_engine.steps(), 0);
        let (recycled, _) = drive(recycled_engine);
        assert_eq!(fresh, recycled);
    }

    #[test]
    fn a_lane_release_into_the_past_panics_and_releases_nothing() {
        struct Idle;
        impl World for Idle {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut Scheduler<'_, ()>) {}
        }
        let mut eng = Engine::new(Idle);
        eng.schedule(SimTime::from_secs(5.0), ());
        eng.step();
        eng.schedule_run(&[SimTime::from_secs(6.0)], ());
        let times = [7.0, 3.0, 4.0, 9.0].map(SimTime::from_secs);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.schedule_run(&times, ());
        }))
        .expect_err("a release before the clock must panic");
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(
            msg,
            format!(
                "cannot schedule into the past: now={}, requested={}",
                SimTime::from_secs(5.0),
                SimTime::from_secs(3.0)
            ),
            "the earliest time is named, not the first"
        );
        assert_eq!(eng.run(), 1, "only the earlier release is pending");
        assert_eq!(eng.now(), SimTime::from_secs(6.0));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<'_, ()>) {
                sched.at(SimTime::from_secs(now.as_secs() - 1.0), ());
            }
        }
        let mut eng = Engine::new(Bad);
        eng.schedule(SimTime::from_secs(5.0), ());
        eng.run();
    }
}

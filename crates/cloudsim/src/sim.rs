//! The cloud data-center simulation: the world that ties workload,
//! admission control, dispatch, instance queues, VM lifecycle, and the
//! provisioning policy together (the role CloudSim plays in §V).
//!
//! Semantics follow the paper's setup exactly:
//!
//! * each application instance owns one core of one host and serves its
//!   bounded FIFO queue one request at a time, no time-sharing;
//! * admission control rejects a request only when every accepting
//!   instance already holds `k = ⌊Ts/Tm⌋` requests;
//! * scale-down destroys idle instances immediately and *drains* busy
//!   ones (no new work, destroyed when the last request completes);
//!   scale-up revives draining instances before booting new VMs.
//!
//! An instance serves FIFO on one core, so request i's departure
//! `d_i = max(a_i, d_{i−1}) + s_i` is fixed when it is admitted (as
//! CloudSim's space-shared scheduler fixes a cloudlet's finish time at
//! submission). Departures are therefore not events: each instance keeps
//! a ring of its pending requests and expires it lazily — when the
//! dispatcher picks the instance, at each evaluation, at a crash, and at
//! the end of the run — recording each request's
//! response and service at its true departure. Only an instance that
//! fills, or drains, holds an event-list entry.
//!
//! The web scenario offers ~10⁹ requests per replication, so the hot
//! path (arrival → dispatch → expire → enqueue) is allocation-free and
//! O(1) except for rare pool-management events.

use crate::arrivals::ArrivalStream;
use crate::config::SimConfig;
use crate::host::HostPool;
use crate::metrics::{RunMetrics, RunSummary};
use crate::probe::{NullProbe, PoolSample, Probe, RejectReason, RequestClass};
use vmprov_core::dispatch::{AnyDispatcher, Dispatcher, InstancePool, InstanceView};
use vmprov_core::policy::{MonitorReport, PoolStatus, ProvisioningPolicy};
use vmprov_des::stats::TimeWeighted;
use vmprov_des::{Engine, EventHandle, EventQueue, RngFactory, Scheduler, SimRng, SimTime, World};
use vmprov_workloads::ServiceModel;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// One request reaches admission control. Arrivals never enter the
    /// event list: the run's [`RunGroup`] hands each to
    /// [`Engine::dispatch_run`] at its time.
    Arrival,
    /// Instance `slot`'s one wake-up: an active instance that filled
    /// gets its room back (the departure that leaves `k − 1` requests),
    /// or a draining one has served its last request. Other departures
    /// are not events; the rings expire them lazily.
    Completion {
        /// Instance slot index.
        slot: u32,
    },
    /// Instance `slot` finishes booting.
    Booted {
        /// Instance slot index.
        slot: u32,
    },
    /// Run the provisioning policy.
    Evaluate,
    /// Monitoring tick: report the arrival window to the policy.
    Monitor,
    /// Injected crash of instance `slot` (when failures are enabled).
    Failure {
        /// Instance slot index.
        slot: u32,
    },
    /// Probe sampling tick — only ever scheduled when the probe's
    /// [`sample_interval`](Probe::sample_interval) is `Some`, so
    /// probe-less runs see an unchanged event stream.
    Sample,
}

// The FEL copies one `Event` per entry, so the payload must stay a
// small index-keyed value (discriminant + u32 slot): no boxes, no wide
// variants. Enforced at compile time.
const _: () = assert!(std::mem::size_of::<Event>() == 8);
const _: () = assert!(std::mem::size_of::<Option<Event>>() == 8);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstState {
    Booting,
    Active,
    Draining,
    Dead,
}

/// The per-instance fields every admission and expiry touches, packed
/// into one record (≈56 bytes, under a cache line) so the hot path
/// reads a single contiguous location instead of scattered SoA arrays:
/// lifecycle state, the queue-ring head/length, the head and tail
/// departure times, the slot's membership-list position, and the
/// pending wake-up timer.
#[derive(Debug, Clone, Copy)]
struct InstHot {
    state: InstState,
    /// Ring index of the oldest request not yet expired.
    qhead: u32,
    /// Requests in the ring, departed-but-unexpired ones included.
    qlen: u32,
    /// Position of the slot in the `active` list while `Active`, or in
    /// the `draining` list while `Draining` — the index swap-removal
    /// and wake-up-side bitset maintenance use. Meaningless in other
    /// states.
    list_pos: u32,
    /// Departure time of the ring's head request (meaningful while
    /// `qlen > 0`). Each later departure follows from the recurrence
    /// `d_i = d_{i−1} + s_i`: a request that joins a busy instance
    /// starts when its predecessor departs.
    head_dep: f64,
    /// Departure time of the latest admitted request: the start time of
    /// the next one while it is in the future.
    tail_dep: f64,
    /// The instance's one [`Event::Completion`] entry, if any: while
    /// `Active`, armed exactly when the ring holds `k` or more requests,
    /// at the departure that leaves `k − 1`; while `Draining`, at the
    /// tail departure. Withdrawn when a crash or destruction discards
    /// the queue and when an expiry at a tick frees the room first.
    completion_timer: Option<EventHandle>,
}

impl InstHot {
    fn booting() -> Self {
        InstHot {
            state: InstState::Booting,
            qhead: 0,
            qlen: 0,
            list_pos: 0,
            head_dep: 0.0,
            tail_dep: 0.0,
            completion_timer: None,
        }
    }
}

/// Struct-of-arrays instance storage with free-list slot reuse.
///
/// The hot path (arrival → expire → enqueue) touches only the packed
/// [`InstHot`] records and `qdata`, which stay contiguous across every
/// live instance instead of being scattered per-`Instance` heap
/// objects. Request queues live in one flat slab: slot `s` owns the
/// ring `qdata[s·stride .. (s+1)·stride]` where `stride` is the
/// smallest power of two holding `k + 1` entries, so admitting or
/// expiring a request is index arithmetic on shared storage and a
/// destroyed slot's ring is reused verbatim by the next boot —
/// steady-state VM churn allocates nothing. Cold fields (host, creation
/// time/sequence, boot and failure timers) stay in separate arrays.
struct InstanceSlots {
    /// Admission-hot per-slot state (see [`InstHot`]).
    hot: Vec<InstHot>,
    host: Vec<usize>,
    created_at: Vec<SimTime>,
    /// Monotone creation sequence of the slot's current tenant. Slot
    /// indices stop tracking creation order once the free list recycles
    /// them, and end-of-run billing sums `vm_seconds` in creation order
    /// (bit-identity with the pre-free-list float summation), so the
    /// order is recorded explicitly.
    created_seq: Vec<u64>,
    /// Pending [`Event::Booted`] timer while `Booting`; withdrawn when a
    /// scale-down cancels the boot.
    boot_timer: Vec<Option<EventHandle>>,
    /// Pending [`Event::Failure`] clock; withdrawn when the instance is
    /// destroyed before its crash (and at end-of-workload teardown).
    failure_timer: Vec<Option<EventHandle>>,
    /// Flat ring-buffer slab of (arrival time, service time) FIFOs; the
    /// head entry of each slot's ring departs at its `head_dep`.
    qdata: Vec<(f64, f64)>,
    /// Per-slot ring size (a power of two ≥ k + 1; grows on demand,
    /// never shrinks).
    stride: usize,
    /// Freed slots available for reuse, popped LIFO.
    free: Vec<u32>,
    next_seq: u64,
}

impl InstanceSlots {
    fn stride_for(k: u32) -> usize {
        (k as usize + 1).next_power_of_two()
    }

    fn with_capacity(cap: usize, k: u32) -> Self {
        let stride = Self::stride_for(k);
        InstanceSlots {
            hot: Vec::with_capacity(cap),
            host: Vec::with_capacity(cap),
            created_at: Vec::with_capacity(cap),
            created_seq: Vec::with_capacity(cap),
            boot_timer: Vec::with_capacity(cap),
            failure_timer: Vec::with_capacity(cap),
            qdata: Vec::with_capacity(cap * stride),
            stride,
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Clears all slot state for reuse by a fresh run with queue
    /// capacity `k`, keeping every backing allocation (the point of
    /// recycling). After `reset` the struct is indistinguishable from
    /// `with_capacity(_, k)` except for retained capacity, which never
    /// affects behaviour.
    fn reset(&mut self, k: u32) {
        self.hot.clear();
        self.host.clear();
        self.created_at.clear();
        self.created_seq.clear();
        self.boot_timer.clear();
        self.failure_timer.clear();
        self.qdata.clear();
        self.stride = Self::stride_for(k);
        self.free.clear();
        self.next_seq = 0;
    }

    /// Total slots ever created (live + dead-awaiting-reuse).
    fn len(&self) -> usize {
        self.hot.len()
    }

    /// Claims a slot in `Booting` state, reusing a freed one when
    /// available (its ring storage is recycled as-is).
    fn alloc(&mut self, host: usize, now: SimTime) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(slot) = self.free.pop() {
            let i = slot as usize;
            debug_assert_eq!(self.hot[i].state, InstState::Dead);
            debug_assert_eq!(self.hot[i].qlen, 0);
            debug_assert!(
                self.boot_timer[i].is_none()
                    && self.failure_timer[i].is_none()
                    && self.hot[i].completion_timer.is_none(),
                "freed slot still has timers armed"
            );
            self.hot[i] = InstHot::booting();
            self.host[i] = host;
            self.created_at[i] = now;
            self.created_seq[i] = seq;
            slot
        } else {
            let slot = self.hot.len() as u32;
            self.hot.push(InstHot::booting());
            self.host.push(host);
            self.created_at.push(now);
            self.created_seq.push(seq);
            self.boot_timer.push(None);
            self.failure_timer.push(None);
            self.qdata
                .resize(self.qdata.len() + self.stride, (0.0, 0.0));
            slot
        }
    }

    /// Returns the slot to the free list (caller has already marked it
    /// `Dead`, withdrawn its timers, and drained its queue).
    fn release(&mut self, slot: u32) {
        debug_assert_eq!(self.hot[slot as usize].state, InstState::Dead);
        debug_assert_eq!(self.hot[slot as usize].qlen, 0);
        self.free.push(slot);
    }

    #[inline]
    fn state(&self, slot: u32) -> InstState {
        self.hot[slot as usize].state
    }

    #[inline]
    fn queue_len(&self, slot: u32) -> u32 {
        self.hot[slot as usize].qlen
    }

    /// Appends a request arriving at `now` with service time `svc`;
    /// returns the new length. It starts at `now` on an empty ring and
    /// at its predecessor's departure otherwise (the ring must hold no
    /// request departed by `now`: the caller expires first).
    #[inline]
    fn push_back(&mut self, slot: u32, now: f64, svc: f64) -> u32 {
        let i = slot as usize;
        let h = &mut self.hot[i];
        debug_assert!((h.qlen as usize) < self.stride, "ring overflow");
        debug_assert!(
            h.qlen == 0 || h.head_dep > now,
            "push onto an unexpired ring"
        );
        let start = if h.qlen == 0 { now } else { h.tail_dep };
        h.tail_dep = start + svc;
        if h.qlen == 0 {
            h.head_dep = h.tail_dep;
        }
        let pos = (h.qhead as usize + h.qlen as usize) & (self.stride - 1);
        h.qlen += 1;
        let qlen = h.qlen;
        self.qdata[i * self.stride + pos] = (now, svc);
        qlen
    }

    /// The slot's ring in FIFO order as `(arrival, service, departure)`,
    /// departures following the recurrence from `head_dep`.
    fn departures(&self, slot: u32) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        let i = slot as usize;
        let h = &self.hot[i];
        let (base, mask, head) = (i * self.stride, self.stride - 1, h.qhead as usize);
        let mut dep = h.head_dep;
        (0..h.qlen as usize).map(move |j| {
            let (arr, svc) = self.qdata[base + ((head + j) & mask)];
            if j > 0 {
                dep += svc;
            }
            (arr, svc, dep)
        })
    }

    /// Requests of `slot` still in the system at `now` (departure after
    /// `now`), whether or not the departed ones have been expired.
    #[inline]
    fn in_system(&self, slot: u32, now: f64) -> u32 {
        let h = &self.hot[slot as usize];
        if h.qlen == 0 || h.head_dep > now {
            return h.qlen;
        }
        self.departures(slot).filter(|&(_, _, d)| d > now).count() as u32
    }

    /// Departure time of the request whose completion leaves `k − 1` in
    /// the ring (the ring must hold at least `k ≥ 1`).
    fn room_time(&self, slot: u32, k: u32) -> SimTime {
        let n = (self.queue_len(slot) - k) as usize;
        let (_, _, d) = self.departures(slot).nth(n).expect("ring holds k requests");
        SimTime::from_secs(d)
    }

    fn clear_queue(&mut self, slot: u32) {
        self.hot[slot as usize].qhead = 0;
        self.hot[slot as usize].qlen = 0;
    }

    /// Grows every slot's ring when Eq. 1 raises `k` past the current
    /// stride (rare: only when the monitored Tm crosses a capacity
    /// boundary), preserving queue contents.
    fn ensure_stride(&mut self, k: u32) {
        let want = Self::stride_for(k);
        if want <= self.stride {
            return;
        }
        let n = self.len();
        let mut data = vec![(0.0f64, 0.0f64); n * want];
        for i in 0..n {
            for j in 0..self.hot[i].qlen as usize {
                let src = (self.hot[i].qhead as usize + j) & (self.stride - 1);
                data[i * want + j] = self.qdata[i * self.stride + src];
            }
            self.hot[i].qhead = 0;
        }
        self.qdata = data;
        self.stride = want;
    }
}

/// Admission probe over the active instances at queue capacity `k`.
/// Admission is O(1) via the maintained free-instance counter, and
/// `bits` is the maintained has-room bitset, so round-robin picks by
/// word scans. A view counts the requests still in the system at
/// `now`, so a ring's departed-but-unexpired entries never read as
/// occupancy.
struct PoolViewRef<'a> {
    slots: &'a InstanceSlots,
    active: &'a [u32],
    now: f64,
    k: u32,
    free: usize,
    bits: &'a [u64],
}

impl InstancePool for PoolViewRef<'_> {
    fn len(&self) -> usize {
        self.active.len()
    }
    fn view(&self, i: usize) -> InstanceView {
        InstanceView {
            in_system: self.slots.in_system(self.active[i], self.now),
            capacity: self.k,
            accepting: true,
        }
    }
    fn has_free(&self) -> bool {
        self.free > 0
    }
    fn room_bits(&self) -> Option<&[u64]> {
        Some(self.bits)
    }
}

/// The simulation world, generic over its observer. The default
/// [`NullProbe`] monomorphizes every hook to nothing, so an unprobed
/// `CloudSim` compiles to the same hot path as before the observability
/// layer existed. The dispatcher is the closed [`AnyDispatcher`] enum,
/// so the per-request `pick` is a `match` over inlinable strategies,
/// not a vtable call. The world holds no workload: its arrivals come
/// from the [`RunGroup`] that steps it.
pub struct CloudSim<P: Probe = NullProbe> {
    cfg: SimConfig,
    hosts: HostPool,
    instances: InstanceSlots,
    /// Slots currently accepting requests, in creation order (the
    /// dispatcher's index space).
    active: Vec<u32>,
    /// Slots draining toward destruction.
    draining: Vec<u32>,
    /// Booting slots in boot-start order (scale-downs cancel the newest
    /// boot first, so cancellation pops from the back).
    booting_slots: Vec<u32>,
    /// Active instances with room (the O(1) admission counter).
    free_count: usize,
    /// Has-room flags over the active list, one bit per active index
    /// (`room_bits[i/64] >> (i%64) & 1` ⟺ `active[i]` holds fewer than
    /// `k` requests; bits at index ≥ `active.len()` are zero). The
    /// branch-free round-robin admission path word-scans this instead
    /// of probing instances. The bits are exact although rings expire
    /// lazily: a ring with room keeps it whatever departs, and a full
    /// one holds a wake-up at the departure that frees its room. Each
    /// slot's position in the active (or draining) list lives in its
    /// packed [`InstHot`] record (`list_pos`), making wake-up-side bit
    /// maintenance and failure/drain removal O(1).
    room_bits: Vec<u64>,
    /// Current per-instance queue capacity (Eq. 1, re-derived from the
    /// monitored Tm at each evaluation).
    k: u32,
    service: ServiceModel,
    policy: Box<dyn ProvisioningPolicy>,
    dispatcher: AnyDispatcher,
    rng_service: SimRng,
    rng_dispatch: SimRng,
    rng_failures: SimRng,
    /// Arrivals seen since the last monitor tick.
    window_arrivals: u64,
    /// Arrivals of the last closed monitor window: what an evaluation
    /// reports, since the tick that closes a window resets the open
    /// count before an evaluation at the same instant runs.
    closed_window_arrivals: u64,
    horizon: SimTime,
    /// Exposed accumulators.
    pub metrics: RunMetrics,
    /// QoS response-time bound used for violation counting.
    ts: f64,
    /// The observer. Hooks never draw randomness or schedule events, so
    /// any probe leaves the run's [`RunSummary`] bit-identical.
    probe: P,
    /// Time of the last emitted [`PoolSample`] (avoids a duplicate when
    /// the end-of-run sample lands exactly on the grid).
    last_sample_t: f64,
}

/// Warm per-thread simulation storage recycled between consecutive
/// runs: instance-slot slabs (state vectors + the flat queue-ring slab)
/// and future-event lists (heap arrays), one of each
/// per run of the largest group stepped so far.
///
/// A campaign worker thread keeps one `SimScratch` and threads it
/// through every group it executes, so steady-state campaign execution
/// rebuilds no per-run storage. Recycling is behaviour-neutral: every
/// structure is fully reset before reuse (only capacity survives), and
/// FEL pop order is `(time, id)` regardless of retained heap
/// capacity — a scratch-vs-fresh run is bit-identical (pinned by
/// tests).
#[derive(Default)]
pub struct SimScratch {
    slots: Vec<InstanceSlots>,
    queues: Vec<EventQueue<Event>>,
}

impl SimScratch {
    /// An empty scratch; the first run through it allocates, later runs
    /// reuse.
    pub fn new() -> Self {
        SimScratch::default()
    }
}

impl<P: Probe> CloudSim<P> {
    /// Builds the world and returns an [`Engine`] primed with the
    /// initial fleet, first evaluation, and monitor tick (plus the
    /// sampling tick when the probe asks for one), recycling `scratch`'s
    /// storage when given. Arrivals are released by the caller.
    #[allow(clippy::too_many_arguments)]
    fn build_engine(
        cfg: SimConfig,
        horizon: SimTime,
        service: ServiceModel,
        policy: Box<dyn ProvisioningPolicy>,
        dispatcher: AnyDispatcher,
        rngs: &RngFactory,
        probe: P,
        scratch: Option<&mut SimScratch>,
    ) -> Engine<Self> {
        let initial = policy.initial_instances();
        let ts = cfg.qos_ts;
        let k = policy.queue_capacity(cfg.initial_service_estimate);
        let (warm_slots, warm_queue) = match scratch {
            Some(s) => (s.slots.pop(), s.queues.pop()),
            None => (None, None),
        };
        let instances = match warm_slots {
            Some(mut slots) => {
                slots.reset(k);
                slots
            }
            None => InstanceSlots::with_capacity(64, k),
        };
        let world = CloudSim {
            hosts: HostPool::new(cfg.hosts, cfg.host_shape, cfg.vm_shape),
            instances,
            active: Vec::with_capacity(256),
            draining: Vec::new(),
            booting_slots: Vec::new(),
            free_count: 0,
            room_bits: Vec::new(),
            k,
            service,
            policy,
            dispatcher,
            rng_service: rngs.stream("service"),
            rng_dispatch: rngs.stream("dispatch"),
            rng_failures: rngs.stream("failures"),
            window_arrivals: 0,
            closed_window_arrivals: 0,
            horizon,
            metrics: RunMetrics::new(0, cfg.metrics),
            ts,
            probe,
            last_sample_t: f64::NEG_INFINITY,
            cfg,
        };
        let mut engine = match warm_queue {
            Some(q) => Engine::with_recycled_queue(world, q),
            None => Engine::new(world),
        };
        // Initial fleet exists (active) at t = 0, as in the paper.
        for _ in 0..initial {
            let w = engine.world_mut();
            if let Some(slot) = w.create_instance_immediately(SimTime::ZERO) {
                if let Some(ttf) = w.draw_ttf() {
                    let h = engine.schedule(SimTime::from_secs(ttf), Event::Failure { slot });
                    engine.world_mut().instances.failure_timer[slot as usize] = Some(h);
                }
            }
        }
        engine.schedule(SimTime::ZERO, Event::Evaluate);
        let tick = engine.world().cfg.monitor_interval;
        if tick <= engine.world().horizon.as_secs() {
            engine.schedule(SimTime::from_secs(tick), Event::Monitor);
        }
        // Start instance tracking at the size of the initial fleet so
        // min_instances reflects pool dynamics, not the empty pre-boot
        // instant.
        let w = engine.world_mut();
        w.metrics.instances = TimeWeighted::new(SimTime::ZERO, w.existing() as f64);
        // Sampling is armed only when the probe asks for it: unprobed
        // runs schedule no extra events and replay the exact pre-probe
        // event stream.
        if let Some(dt) = w.probe.sample_interval() {
            assert!(dt > 0.0 && dt.is_finite(), "sample interval must be > 0");
            engine.world_mut().emit_sample(SimTime::ZERO);
            if dt <= engine.world().horizon.as_secs() {
                engine.schedule(SimTime::from_secs(dt), Event::Sample);
            }
        }
        engine
    }

    /// Captures aggregate pool state and hands it to the probe.
    ///
    /// Reads the rings without expiring them: requests departed by
    /// `now` count as completed here, but are folded into the metrics
    /// only where an unprobed run folds them too, so a sampling probe
    /// leaves the [`RunSummary`] bit-identical.
    fn emit_sample(&mut self, now: SimTime) {
        let t = now.as_secs();
        let (mut queue_depth, mut departed) = (0u64, 0u64);
        let (mut departed_response, mut departed_service) = (0.0, 0.0);
        for &slot in self.active.iter().chain(self.draining.iter()) {
            for (arr, svc, dep) in self.instances.departures(slot) {
                if dep <= t {
                    departed += 1;
                    departed_response += dep - arr;
                    departed_service += svc;
                } else {
                    queue_depth += 1;
                }
            }
        }
        // VM seconds accrued so far: destroyed instances are already in
        // the metric; live ones are counted up to `now` in creation
        // order (the same float summation order as the end-of-run
        // billing, which slot reuse no longer guarantees by index).
        let mut live: Vec<(u64, SimTime)> = (0..self.instances.len())
            .filter(|&i| self.instances.hot[i].state != InstState::Dead)
            .map(|i| (self.instances.created_seq[i], self.instances.created_at[i]))
            .collect();
        live.sort_unstable_by_key(|&(seq, _)| seq);
        let live_vm_seconds: f64 = live.iter().map(|&(_, created)| now - created).sum();
        let recorded = self.metrics.response.count();
        let sample = PoolSample {
            t,
            instances: self.existing(),
            active: self.active.len() as u32,
            booting: self.booting_slots.len() as u32,
            draining: self.draining.len() as u32,
            queue_depth,
            busy: self.busy(t),
            k: self.k,
            offered: self.metrics.offered,
            rejected: self.metrics.rejected,
            completed: recorded + departed,
            response_sum: self.metrics.response.mean() * recorded as f64 + departed_response,
            busy_seconds: self.metrics.busy_seconds + departed_service,
            vm_seconds: self.metrics.vm_seconds + live_vm_seconds,
        };
        self.last_sample_t = t;
        self.probe.on_sample(&sample);
    }

    /// Active instances serving a request at `now`.
    fn busy(&self, now: f64) -> u32 {
        self.active
            .iter()
            .filter(|&&s| {
                let h = &self.instances.hot[s as usize];
                h.qlen > 0 && h.tail_dep > now
            })
            .count() as u32
    }

    /// Pops every request of `slot` that departed by `now`, folding its
    /// response and service times into the metrics and passing the
    /// probe its true departure (and its successor's start). Returns
    /// whether anything departed. Room bits and timers are the
    /// caller's: see [`settle`](Self::settle).
    #[inline]
    fn expire(&mut self, slot: u32, now: f64) -> bool {
        let i = slot as usize;
        let stride = self.instances.stride;
        let h = self.instances.hot[i];
        if h.qlen == 0 || h.head_dep > now {
            return false;
        }
        let ring = &self.instances.qdata[i * stride..(i + 1) * stride];
        let (mut head, mut len, mut dep) = (h.qhead as usize, h.qlen, h.head_dep);
        loop {
            let (arr, svc) = ring[head];
            let response = dep - arr;
            self.metrics.record_completion(response, svc, self.ts);
            self.probe
                .on_service_complete(SimTime::from_secs(dep), slot, response, svc);
            head = (head + 1) & (stride - 1);
            len -= 1;
            if len == 0 {
                break;
            }
            // The successor joined while this request was in service
            // (its ring was expired at admission), so it starts now.
            self.probe.on_service_start(SimTime::from_secs(dep), slot);
            dep += ring[head].1;
            if dep > now {
                break;
            }
        }
        let h = &mut self.instances.hot[i];
        h.qhead = head as u32;
        h.qlen = len;
        h.head_dep = dep;
        true
    }

    /// [`expire`](Self::expire) plus the state change a departure makes
    /// when an evaluation or a crash reaches it before its wake-up: a
    /// full active instance gets its room back (its wake-up withdrawn),
    /// and an emptied draining one is destroyed.
    fn settle(&mut self, slot: u32, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        if !self.expire(slot, now.as_secs()) {
            return;
        }
        let i = slot as usize;
        match self.instances.hot[i].state {
            InstState::Active => {
                if self.instances.hot[i].qlen < self.k {
                    if let Some(timer) = self.instances.hot[i].completion_timer.take() {
                        sched.cancel(timer);
                        self.restore_room(slot);
                    }
                }
            }
            InstState::Draining => {
                if self.instances.hot[i].qlen == 0 {
                    self.remove_draining(slot);
                    self.destroy_instance(slot, now, sched);
                }
            }
            InstState::Booting | InstState::Dead => {}
        }
    }

    /// Settles every active and draining ring at `now`, so an
    /// evaluation reads the monitored Tm, the idle instances and the
    /// pool counts an event-per-departure run would hold. It costs a
    /// pass over the pool, so only evaluations pay it: a monitor tick
    /// reads no ring state.
    fn settle_all(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        for idx in 0..self.active.len() {
            self.settle(self.active[idx], now, sched);
        }
        // Back to front: settling may swap-remove the entry it visits.
        for pos in (0..self.draining.len()).rev() {
            self.settle(self.draining[pos], now, sched);
        }
    }

    /// A full active instance's room comes back: count it free again
    /// and set its has-room bit.
    fn restore_room(&mut self, slot: u32) {
        self.free_count += 1;
        let idx = self.instances.hot[slot as usize].list_pos as usize;
        debug_assert_eq!(self.active[idx], slot, "active list_pos out of sync");
        self.room_bits[idx >> 6] |= 1u64 << (idx & 63);
    }

    /// Arms the wake-up of a full active instance at the departure
    /// that gives it room again.
    fn arm_room_timer(&mut self, slot: u32, sched: &mut Scheduler<'_, Event>) {
        let at = self.instances.room_time(slot, self.k);
        let h = sched.at(at, Event::Completion { slot });
        let old = self.instances.hot[slot as usize]
            .completion_timer
            .replace(h);
        debug_assert!(old.is_none(), "instance already held a wake-up");
    }

    /// Withdraws the instance's wake-up, if it holds one.
    fn disarm(&mut self, slot: u32, sched: &mut Scheduler<'_, Event>) {
        if let Some(timer) = self.instances.hot[slot as usize].completion_timer.take() {
            sched.cancel(timer);
        }
    }

    /// Existing (non-dead) instance count: booting + active + draining.
    fn existing(&self) -> u32 {
        (self.booting_slots.len() + self.active.len() + self.draining.len()) as u32
    }

    fn instance_has_room(&self, slot: u32) -> bool {
        self.instances.queue_len(slot) < self.k
    }

    /// Appends `slot` to the active list, maintaining the slot→index
    /// map and the has-room bitset (bits past the old length are zero
    /// by invariant, so only a set is ever needed).
    fn push_active(&mut self, slot: u32) {
        let idx = self.active.len();
        self.instances.hot[slot as usize].list_pos = idx as u32;
        self.active.push(slot);
        if idx >> 6 >= self.room_bits.len() {
            self.room_bits.push(0);
        }
        debug_assert_eq!(self.room_bits[idx >> 6] >> (idx & 63) & 1, 0);
        if self.instance_has_room(slot) {
            self.room_bits[idx >> 6] |= 1 << (idx & 63);
        }
    }

    /// Swap-removes the active-list entry at `idx`, relocating the
    /// moved tail entry's position and has-room bit, and re-zeroing the
    /// vacated tail bit. Returns the removed slot.
    fn remove_active(&mut self, idx: usize) -> u32 {
        let slot = self.active.swap_remove(idx);
        let last = self.active.len(); // position vacated by the swap
        if idx < last {
            let moved = self.active[idx];
            self.instances.hot[moved as usize].list_pos = idx as u32;
            let bit = self.room_bits[last >> 6] >> (last & 63) & 1;
            let mask = 1u64 << (idx & 63);
            if bit != 0 {
                self.room_bits[idx >> 6] |= mask;
            } else {
                self.room_bits[idx >> 6] &= !mask;
            }
        }
        self.room_bits[last >> 6] &= !(1u64 << (last & 63));
        slot
    }

    /// Removes `slot` from the draining list via its recorded position
    /// — no scan — relocating the moved tail entry's index. Replaces
    /// the former O(n) `retain` over the whole list.
    fn remove_draining(&mut self, slot: u32) {
        let pos = self.instances.hot[slot as usize].list_pos as usize;
        debug_assert_eq!(self.draining[pos], slot, "draining list_pos out of sync");
        self.draining.swap_remove(pos);
        if pos < self.draining.len() {
            let moved = self.draining[pos];
            self.instances.hot[moved as usize].list_pos = pos as u32;
        }
    }

    /// Creates an instance that is active immediately (initial fleet, or
    /// boot delay zero). Returns the slot if placement succeeded.
    fn create_instance_immediately(&mut self, now: SimTime) -> Option<u32> {
        let slot = self.allocate_instance(now)?;
        self.instances.hot[slot as usize].state = InstState::Active;
        self.push_active(slot);
        self.free_count += 1; // fresh instance is empty
        self.probe.on_vm_active(now, slot);
        Some(slot)
    }

    /// Draws a time-to-failure for a fresh instance, if failures are on.
    fn draw_ttf(&mut self) -> Option<f64> {
        let mtbf = self.cfg.instance_mtbf?;
        use vmprov_des::dist::Exponential;
        Some(Exponential::from_mean(mtbf).sample(&mut self.rng_failures))
    }

    /// Allocates host resources and records a new instance in `Booting`
    /// state. Returns the slot, or `None` if the data center is full.
    fn allocate_instance(&mut self, now: SimTime) -> Option<u32> {
        let Some(host) = self.hosts.place() else {
            self.metrics.vm_creation_failures += 1;
            return None;
        };
        let slot = self.instances.alloc(host, now);
        self.metrics.vms_created += 1;
        self.metrics.instances.add(now, 1.0);
        self.probe.on_vm_boot(now, slot);
        Some(slot)
    }

    /// Destroys an instance (must hold no requests), withdrawing every
    /// timer still armed for it so no dead-instance event ever fires.
    fn destroy_instance(&mut self, slot: u32, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        let i = slot as usize;
        debug_assert_eq!(self.instances.hot[i].qlen, 0, "destroying a busy instance");
        debug_assert!(self.instances.hot[i].state != InstState::Dead);
        self.instances.hot[i].state = InstState::Dead;
        for timer in [
            self.instances.boot_timer[i].take(),
            self.instances.failure_timer[i].take(),
            self.instances.hot[i].completion_timer.take(),
        ]
        .into_iter()
        .flatten()
        {
            sched.cancel(timer);
        }
        self.metrics.vm_seconds += now - self.instances.created_at[i];
        self.metrics.instances.add(now, -1.0);
        let host = self.instances.host[i];
        self.hosts.release(host);
        self.probe.on_vm_destroy(now, slot);
        self.instances.release(slot);
    }

    /// Debug-build audit of the admission state: bit `i` of `room_bits`
    /// is set exactly when `active[i]`'s ring holds fewer than `k`
    /// requests, every bit at an index ≥ `active.len()` is zero,
    /// `free_count` is the number of set bits, an active instance holds
    /// a wake-up exactly when its ring is full, and a draining one
    /// always holds one. Rings count their unexpired entries, so the
    /// audit needs no expiry. Runs at each monitor tick and after each
    /// evaluation (which may change `k` and resize the pool).
    fn debug_check_room_bits(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        assert!(self.room_bits.len() * 64 >= self.active.len());
        for &s in &self.active {
            let h = &self.instances.hot[s as usize];
            assert_eq!(
                h.completion_timer.is_some(),
                h.qlen >= self.k,
                "slot {s}: wake-up out of sync with a full ring"
            );
        }
        for &s in &self.draining {
            let h = &self.instances.hot[s as usize];
            assert!(
                h.qlen > 0 && h.completion_timer.is_some(),
                "slot {s}: drain timer"
            );
        }
        for (w, &word) in self.room_bits.iter().enumerate() {
            for b in 0..64 {
                let idx = w * 64 + b;
                let want = self
                    .active
                    .get(idx)
                    .is_some_and(|&s| self.instance_has_room(s));
                assert_eq!(word >> b & 1 == 1, want, "room_bits[{idx}] out of sync");
            }
        }
        let set: u32 = self.room_bits.iter().map(|w| w.count_ones()).sum();
        assert_eq!(set as usize, self.free_count, "free_count out of sync");
    }

    /// Recomputes `free_count`, rebuilds the has-room bitset and
    /// re-arms the full instances' wake-ups after `k` changes (the rings
    /// are settled).
    fn recount_free(&mut self, sched: &mut Scheduler<'_, Event>) {
        self.room_bits.clear();
        self.room_bits.resize(self.active.len().div_ceil(64), 0);
        let mut free = 0;
        for idx in 0..self.active.len() {
            let s = self.active[idx];
            self.disarm(s, sched);
            if self.instances.queue_len(s) < self.k {
                free += 1;
                self.room_bits[idx >> 6] |= 1 << (idx & 63);
            } else {
                self.arm_room_timer(s, sched);
            }
        }
        self.free_count = free;
    }

    /// Applies a policy target: grow (revive draining, boot new) or
    /// shrink (destroy idle, cancel booting, drain busy).
    fn apply_target(&mut self, target: u32, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        let target = target.max(1);
        let existing_serving = (self.booting_slots.len() + self.active.len()) as u32;
        if target > existing_serving {
            let mut need = target - existing_serving;
            // Revive draining instances first (§IV-C).
            while need > 0 {
                let Some(slot) = self.draining.pop() else {
                    break;
                };
                debug_assert_eq!(self.instances.hot[slot as usize].state, InstState::Draining);
                self.instances.hot[slot as usize].state = InstState::Active;
                // The drain timer goes; a full ring needs a wake-up.
                self.disarm(slot, sched);
                self.push_active(slot);
                if self.instance_has_room(slot) {
                    self.free_count += 1;
                } else {
                    self.arm_room_timer(slot, sched);
                }
                self.probe.on_vm_revive(now, slot);
                need -= 1;
            }
            // Boot fresh VMs for the remainder.
            for _ in 0..need {
                let created = if self.cfg.boot_delay <= 0.0 {
                    self.create_instance_immediately(now)
                } else if let Some(slot) = self.allocate_instance(now) {
                    self.booting_slots.push(slot);
                    let h = sched.after(self.cfg.boot_delay, Event::Booted { slot });
                    self.instances.boot_timer[slot as usize] = Some(h);
                    Some(slot)
                } else {
                    None
                };
                if let Some(slot) = created {
                    if let Some(ttf) = self.draw_ttf() {
                        let h = sched
                            .after(self.cfg.boot_delay.max(0.0) + ttf, Event::Failure { slot });
                        self.instances.failure_timer[slot as usize] = Some(h);
                    }
                }
            }
        } else if target < existing_serving {
            let mut excess = existing_serving - target;
            // 1. Idle active instances die immediately.
            let mut i = 0;
            while excess > 0 && i < self.active.len() {
                let slot = self.active[i];
                if self.instances.queue_len(slot) == 0 {
                    self.remove_active(i);
                    self.free_count -= 1; // idle ⇒ had room
                    self.destroy_instance(slot, now, sched);
                    excess -= 1;
                } else {
                    i += 1;
                }
            }
            // 2. Cancel booting instances (they hold no work), newest
            //    boot first.
            while excess > 0 {
                let Some(slot) = self.booting_slots.pop() else {
                    break;
                };
                debug_assert_eq!(self.instances.hot[slot as usize].state, InstState::Booting);
                self.destroy_instance(slot, now, sched);
                excess -= 1;
            }
            // 3. Drain the busy instances with the fewest outstanding
            //    requests.
            while excess > 0 && !self.active.is_empty() {
                let (idx, _) = self
                    .active
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &s)| self.instances.queue_len(s))
                    .expect("non-empty");
                let slot = self.remove_active(idx);
                if self.instance_has_room(slot) {
                    self.free_count -= 1;
                }
                // Idle instances died above, so this one is busy: swap
                // any room wake-up for one timer at its last departure.
                debug_assert!(
                    self.instances.queue_len(slot) > 0,
                    "draining an idle instance"
                );
                self.disarm(slot, sched);
                let last = self.instances.hot[slot as usize].tail_dep;
                let h = sched.at(SimTime::from_secs(last), Event::Completion { slot });
                self.instances.hot[slot as usize].completion_timer = Some(h);
                self.instances.hot[slot as usize].state = InstState::Draining;
                self.instances.hot[slot as usize].list_pos = self.draining.len() as u32;
                self.draining.push(slot);
                self.probe.on_vm_drain(now, slot);
                excess -= 1;
            }
        }
    }

    /// The monitored Tm / SCV, falling back to configured priors until
    /// enough completions are recorded.
    fn monitored_service(&self) -> (f64, f64) {
        let folded = &self.metrics.response;
        if folded.count() >= 30 {
            let mean = folded.means()[1];
            let scv = folded.population_variances()[1] / (mean * mean);
            (mean, scv)
        } else {
            (
                self.cfg.initial_service_estimate,
                self.cfg.initial_scv_estimate,
            )
        }
    }

    fn handle_arrival(&mut self, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        self.metrics.offered += 1;
        self.window_arrivals += 1;
        self.probe.on_arrival(now, RequestClass::High);
        let view = PoolViewRef {
            slots: &self.instances,
            active: &self.active,
            now: now.as_secs(),
            k: self.k,
            free: self.free_count,
            bits: &self.room_bits,
        };
        let pick = self
            .dispatcher
            .pick_drawing(&view, || self.rng_dispatch.uniform01());
        let Some(idx) = pick else {
            self.metrics.rejected += 1;
            self.probe
                .on_reject(now, RequestClass::High, RejectReason::PoolFull);
            return;
        };
        let slot = self.active[idx];
        // Departures up to `now` leave first, so the new request starts
        // at `now` on an idle instance and at the last departure else.
        self.expire(slot, now.as_secs());
        debug_assert!(
            self.instances.queue_len(slot) < self.k,
            "admission picked active[{idx}] with no room"
        );
        let svc = self.service.sample(&mut self.rng_service);
        let len = self.instances.push_back(slot, now.as_secs(), svc);
        self.probe.on_admit(now, slot, len);
        if len == 1 {
            self.probe.on_service_start(now, slot);
        }
        if len == self.k {
            self.free_count -= 1;
            // `idx` is the pick's active-list position of `slot`.
            self.room_bits[idx >> 6] &= !(1u64 << (idx & 63));
            self.arm_room_timer(slot, sched);
        }
    }

    /// An instance's one wake-up fires: a full active instance gets its
    /// room back, and a draining one has served its last request.
    fn handle_completion(&mut self, slot: u32, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        // Crashes, revives and early expiries withdraw the wake-up, so
        // this event can only reach the live instance that armed it.
        let timer = self.instances.hot[slot as usize].completion_timer.take();
        debug_assert!(timer.is_some(), "completion leaked past cancellation");
        self.expire(slot, now.as_secs());
        match self.instances.state(slot) {
            InstState::Active => {
                debug_assert!(self.instance_has_room(slot), "wake-up left the ring full");
                self.restore_room(slot);
            }
            InstState::Draining => {
                debug_assert_eq!(self.instances.queue_len(slot), 0, "drain timer too early");
                self.remove_draining(slot);
                self.destroy_instance(slot, now, sched);
            }
            InstState::Booting | InstState::Dead => {
                unreachable!("completions never target booting or dead instances")
            }
        }
    }

    /// An injected instance crash: in-flight and queued requests are
    /// lost, resources are released, and the policy is re-evaluated
    /// immediately (idealized instant failure detection).
    fn handle_failure(&mut self, slot: u32, now: SimTime, sched: &mut Scheduler<'_, Event>) {
        // Destruction withdraws the failure clock, so this event can
        // only reach a live instance.
        debug_assert!(
            self.instances.state(slot) != InstState::Dead,
            "failure leaked past cancellation"
        );
        self.instances.failure_timer[slot as usize] = None;
        // Requests that departed by the crash completed; the rest of
        // the ring is lost. A draining instance whose last request
        // departs at this very instant is gone before the crash.
        self.settle(slot, now, sched);
        let state = self.instances.state(slot);
        match state {
            InstState::Active => {
                let idx = self.instances.hot[slot as usize].list_pos as usize;
                debug_assert_eq!(self.active[idx], slot, "active list_pos out of sync");
                self.remove_active(idx);
                if self.instance_has_room(slot) {
                    self.free_count -= 1;
                }
            }
            InstState::Draining => {
                self.remove_draining(slot);
            }
            InstState::Booting => {
                let idx = self
                    .booting_slots
                    .iter()
                    .position(|&s| s == slot)
                    .expect("booting instance not in booting list");
                self.booting_slots.remove(idx);
            }
            InstState::Dead => return,
        }
        let lost = self.instances.queue_len(slot) as u64;
        self.metrics.requests_lost_to_failures += lost;
        self.metrics.instance_failures += 1;
        self.instances.clear_queue(slot);
        self.probe.on_vm_crash(now, slot, lost);
        // destroy_instance withdraws the wake-up of the ring that just
        // died with the instance.
        self.destroy_instance(slot, now, sched);
        // Monitoring notices and the provisioner replaces the capacity
        // (without disturbing the periodic evaluation schedule).
        self.handle_evaluate(now, sched, false);
    }

    fn handle_evaluate(
        &mut self,
        now: SimTime,
        sched: &mut Scheduler<'_, Event>,
        reschedule: bool,
    ) {
        self.settle_all(now, sched);
        let (tm, scv) = self.monitored_service();
        let new_k = self.policy.queue_capacity(tm);
        if new_k != self.k {
            self.k = new_k;
            self.instances.ensure_stride(new_k);
            self.recount_free(sched);
        }
        let status = PoolStatus {
            now,
            active_instances: (self.active.len() + self.booting_slots.len()) as u32,
            draining_instances: self.draining.len() as u32,
            monitor: MonitorReport {
                mean_service_time: tm,
                service_scv: scv,
                observed_arrival_rate: self.closed_window_arrivals as f64
                    / self.cfg.monitor_interval.max(1e-9),
                pool_utilization: if self.active.is_empty() {
                    0.0
                } else {
                    f64::from(self.busy(now.as_secs())) / self.active.len() as f64
                },
            },
        };
        let target = self.policy.evaluate(&status);
        // `last_decision` always describes the evaluation that just ran
        // (None when the policy sized without Algorithm 1).
        if let Some(d) = self.policy.last_decision().copied() {
            self.probe.on_sizing(now, &d);
        }
        self.apply_target(target, now, sched);
        self.debug_check_room_bits();
        self.hosts.debug_check_hosts();
        if reschedule {
            let next = self.policy.next_evaluation(now);
            if next <= self.horizon {
                sched.at(next, Event::Evaluate);
            }
        }
    }
}

impl<P: Probe> World for CloudSim<P> {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<'_, Event>) {
        match event {
            Event::Arrival => self.handle_arrival(now, sched),
            Event::Completion { slot } => self.handle_completion(slot, now, sched),
            Event::Booted { slot } => {
                // Scale-downs withdraw the boot timer when they cancel a
                // boot, so this event always finds the instance booting.
                debug_assert_eq!(
                    self.instances.state(slot),
                    InstState::Booting,
                    "boot leaked past cancellation"
                );
                self.instances.boot_timer[slot as usize] = None;
                self.instances.hot[slot as usize].state = InstState::Active;
                let idx = self
                    .booting_slots
                    .iter()
                    .position(|&s| s == slot)
                    .expect("booted instance not in booting list");
                self.booting_slots.remove(idx);
                self.push_active(slot);
                if self.instance_has_room(slot) {
                    self.free_count += 1;
                }
                self.probe.on_vm_active(now, slot);
            }
            Event::Evaluate => self.handle_evaluate(now, sched, true),
            Event::Failure { slot } => self.handle_failure(slot, now, sched),
            Event::Sample => {
                self.emit_sample(now);
                let dt = self
                    .probe
                    .sample_interval()
                    .expect("sample event fired without a sampling probe");
                let next = now + dt;
                if next <= self.horizon {
                    sched.at(next, Event::Sample);
                }
            }
            Event::Monitor => {
                self.debug_check_room_bits();
                self.hosts.debug_check_hosts();
                self.policy
                    .observe_arrivals(now, self.window_arrivals, self.cfg.monitor_interval);
                self.closed_window_arrivals = self.window_arrivals;
                self.window_arrivals = 0;
                let next = now + self.cfg.monitor_interval;
                if next <= self.horizon {
                    sched.at(next, Event::Monitor);
                }
            }
        }
    }
}

/// Arrival times the group hands to each of its runs in turn. A slice
/// (32 KiB of times) stays in cache while every run of the group
/// dispatches it, whatever the workload's batch size.
const ARRIVAL_SLICE: usize = 4096;

/// Runs that read one arrival stream, stepped together: the policies
/// of one replication of a figure set, the analyzers of one rep of a
/// replay grid, or a single run (a group of one — every
/// [`SimBuilder`](crate::SimBuilder) `run` entry point goes through
/// here, so there is one arrival path).
///
/// The group expands the workload once ([`ArrivalStream`]) and hands
/// each ready slice of arrival times to every run's
/// [`Engine::dispatch_run`], which handles each arrival after every
/// event at or before its time. Arrivals so lose ties to every other
/// event, and a run handles its events in the order of the scalar
/// cadence, which released each batch's arrivals at the batch's own
/// instant; how the group slices the times never changes what a run
/// computes.
///
/// [`advance_before`](Self::advance_before) pauses the runs: a paused
/// run's clock stays at its last event, so stepping through any
/// sequence of bounds handles the events, in the order, of a group that
/// never paused, and [`finish`](Self::finish) returns the same
/// [`RunSummary`]s. The group pulls from its workload only to expand a
/// run released before the bound, so a replay grid can step a group up
/// to the trace rows already decoded.
pub struct RunGroup<P: Probe = NullProbe> {
    stream: ArrivalStream,
    runs: Vec<Engine<CloudSim<P>>>,
}

impl<P: Probe> RunGroup<P> {
    /// Builds one run per builder off one arrival stream on `rngs`,
    /// recycling `scratch`'s storage when given. The stream reads the
    /// first builder's workload; the others' workloads, if set, are
    /// dropped, so every builder must describe the same arrivals.
    ///
    /// # Panics
    /// Panics when `builders` is empty, when the first builder carries
    /// no workload, or when a builder lacks another component.
    pub fn start(
        builders: Vec<crate::SimBuilder<P>>,
        rngs: &RngFactory,
        mut scratch: Option<&mut SimScratch>,
    ) -> Self {
        let mut parts: Vec<_> = builders
            .into_iter()
            .map(crate::SimBuilder::into_parts)
            .collect();
        let first = parts.first_mut().expect("a group needs at least one run");
        let workload = first
            .workload
            .take()
            .unwrap_or_else(|| crate::builder::missing("workload"));
        let stream = ArrivalStream::new(workload, rngs, first.cfg.arrival_run);
        let horizon = stream.horizon();
        let runs = parts
            .into_iter()
            .map(|p| {
                CloudSim::build_engine(
                    p.cfg,
                    horizon,
                    p.service,
                    p.policy,
                    p.dispatcher,
                    rngs,
                    p.probe,
                    scratch.as_deref_mut(),
                )
            })
            .collect();
        RunGroup { stream, runs }
    }

    /// Handles, in every run, each event and arrival that falls
    /// strictly before `bound`, then pauses. Expands only stream runs
    /// released before `bound`.
    pub fn advance_before(&mut self, bound: SimTime) {
        let RunGroup { stream, runs } = self;
        loop {
            let ready = stream.ready();
            let n = ready.partition_point(|&t| t < bound).min(ARRIVAL_SLICE);
            if n > 0 {
                for run in runs.iter_mut() {
                    dispatch_arrivals(run, &ready[..n]);
                }
                stream.take(n);
                continue;
            }
            match stream.next_release() {
                Some(release) if release < bound && stream.ready().is_empty() => stream.expand(),
                _ => break,
            }
        }
        for run in runs.iter_mut() {
            step_before(run, bound);
        }
    }

    /// Runs the rest of every simulation; returns each run's summary and
    /// probe, in builder order.
    pub fn finish(mut self, mut scratch: Option<&mut SimScratch>) -> Vec<(RunSummary, P)> {
        self.advance_before(SimTime::from_secs(f64::MAX));
        let mut out = Vec::with_capacity(self.runs.len());
        for engine in self.runs {
            let (summary, world, queue) = run_engine_core(engine);
            if let Some(s) = scratch.as_deref_mut() {
                s.slots.push(world.instances);
                s.queues.push(queue);
            }
            out.push((summary, world.probe));
        }
        out
    }
}

/// Handles the arrivals at `times` (sorted, none before the run's
/// clock). Arrivals past the workload horizon wait until the run has
/// [closed its horizon](close_horizon).
fn dispatch_arrivals<P: Probe>(engine: &mut Engine<CloudSim<P>>, times: &[SimTime]) {
    let horizon = engine.world().horizon;
    let (within, past) = times.split_at(times.partition_point(|&t| t <= horizon));
    engine.dispatch_run(within, Event::Arrival);
    if !past.is_empty() {
        close_horizon(engine);
        engine.dispatch_run(past, Event::Arrival);
    }
}

/// Advances `engine` through every event strictly before `bound`,
/// closing the run's horizon first if `bound` lies past it.
fn step_before<P: Probe>(engine: &mut Engine<CloudSim<P>>, bound: SimTime) {
    if bound > engine.world().horizon {
        close_horizon(engine);
    }
    engine.run_before(bound);
}

/// Handles everything up to the workload horizon and withdraws the
/// failure clocks, as the end of a run does (see [`run_engine_core`]);
/// a no-op once done.
fn close_horizon<P: Probe>(engine: &mut Engine<CloudSim<P>>) {
    engine.run_until(engine.world().horizon);
    withdraw_failure_clocks(engine);
}

/// Cancels the failure clocks still armed for surviving instances.
/// Left in place they would fire during the drain — each crash
/// re-evaluates the policy, which boots a replacement with a fresh
/// clock, so the run would never end, and every ghost crash would push
/// the billed end time further out.
fn withdraw_failure_clocks<P: Probe>(engine: &mut Engine<CloudSim<P>>) {
    let clocks: Vec<EventHandle> = engine
        .world_mut()
        .instances
        .failure_timer
        .iter_mut()
        .filter_map(|timer| timer.take())
        .collect();
    for clock in clocks {
        engine.cancel(clock);
    }
}

/// Ends a run whose arrivals are all handled: handles everything up to
/// the horizon, withdraws the failure clocks, drains the accepted work
/// still in flight, and bills the surviving VMs up to that final
/// instant.
fn run_engine_core<P: Probe>(
    mut engine: Engine<CloudSim<P>>,
) -> (RunSummary, CloudSim<P>, EventQueue<Event>) {
    let name = engine.world().policy.name();
    close_horizon(&mut engine);
    // Drain the accepted work that is still in flight. Generated
    // workloads submit nothing at or past the horizon (the web
    // workload clips its last interval to it). A replayed trace whose
    // last row carries a spread still has arrivals past the trace's
    // end time; the group hands them over once the horizon is closed,
    // so a replay offers every request of the trace.
    engine.run();
    // Every draining instance met its timer; the active ones' rings
    // empty now, each request at its own departure. The run ends at its
    // last event or its last departure, whichever is later.
    let mut end = engine.now();
    let world = engine.world_mut();
    for idx in 0..world.active.len() {
        let slot = world.active[idx];
        let h = &world.instances.hot[slot as usize];
        if h.qlen > 0 {
            end = end.max(SimTime::from_secs(h.tail_dep));
            world.expire(slot, f64::INFINITY);
        }
    }
    // A sampling probe gets one final off-grid sample so the series
    // covers the drain tail (skipped when the end lands on the grid).
    if world.probe.sample_interval().is_some() && end.as_secs() > world.last_sample_t {
        world.emit_sample(end);
    }
    // Bill surviving VMs up to the end of the run, summed in creation
    // order (slot order no longer is creation order once the free list
    // recycles slots, and the float summation order is part of the
    // bit-identity contract). Billing only — the instance-count tracker
    // keeps its final level so min/max reflect pool dynamics, not the
    // teardown.
    let mut in_flight = 0u64;
    let mut live: Vec<(u64, SimTime)> = (0..world.instances.len())
        .filter(|&i| world.instances.hot[i].state != InstState::Dead)
        .inspect(|&i| in_flight += u64::from(world.instances.hot[i].qlen))
        .map(|i| {
            (
                world.instances.created_seq[i],
                world.instances.created_at[i],
            )
        })
        .collect();
    assert_eq!(in_flight, 0, "run ended with work in flight");
    live.sort_unstable_by_key(|&(seq, _)| seq);
    for &(_, created) in &live {
        world.metrics.vm_seconds += end - created;
    }
    let summary = world.metrics.finalize(end, &name, in_flight);
    let (world, queue) = engine.into_parts();
    (summary, world, queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimBuilder;
    use std::sync::Arc;
    use vmprov_core::analyzer::ScheduleAnalyzer;
    use vmprov_core::modeler::{ModelerOptions, PerformanceModeler};
    use vmprov_core::policy::{AdaptivePolicy, StaticPolicy};
    use vmprov_core::qos::QosTargets;
    use vmprov_core::RoundRobin;
    use vmprov_workloads::synthetic::PoissonProcess;

    fn small_config() -> SimConfig {
        SimConfig {
            hosts: 50,
            monitor_interval: 10.0,
            ..SimConfig::paper(0.100, 0.250)
        }
    }

    fn service() -> ServiceModel {
        ServiceModel::new(0.100, 0.10)
    }

    fn poisson(rate: f64, horizon: f64) -> PoissonProcess {
        PoissonProcess::new(rate, SimTime::from_secs(horizon))
    }

    /// Builds and runs a scenario with the round-robin dispatcher.
    fn run_sim(
        cfg: SimConfig,
        workload: impl vmprov_workloads::ArrivalProcess + Send + 'static,
        svc: ServiceModel,
        policy: Box<dyn ProvisioningPolicy>,
        seed: u64,
    ) -> RunSummary {
        SimBuilder::new(cfg)
            .workload(workload)
            .service(svc)
            .policy(policy)
            .dispatcher(RoundRobin::new())
            .run(&RngFactory::new(seed))
    }

    fn run_static(m: u32, rate: f64, horizon: f64, seed: u64) -> RunSummary {
        run_sim(
            small_config(),
            poisson(rate, horizon),
            service(),
            Box::new(StaticPolicy::new(m, QosTargets::web_paper())),
            seed,
        )
    }

    #[test]
    fn underloaded_static_pool_serves_everything() {
        // 10 instances, offered load ≈ 2.1 erlangs: no rejections, and
        // responses stay within [base, k·(1.1 base)].
        let s = run_static(10, 20.0, 2_000.0, 1);
        assert!(s.offered_requests > 30_000);
        assert_eq!(s.rejected_requests, 0, "{s:?}");
        assert_eq!(s.qos_violations, 0);
        assert!(s.mean_response_time >= 0.100);
        assert!(s.max_response_time <= 0.250);
        assert_eq!(s.min_instances, 10);
        assert_eq!(s.max_instances, 10);
        // Utilization ≈ ρ = 2.1/10.
        assert!(
            (s.utilization - 0.21).abs() < 0.02,
            "util {}",
            s.utilization
        );
    }

    #[test]
    fn overloaded_static_pool_rejects_the_excess() {
        // 5 instances of capacity ~9.52 req/s each vs 100 req/s offered:
        // throughput caps at ~47.6/s ⇒ ≈52% rejected.
        let s = run_static(5, 100.0, 2_000.0, 2);
        let expected = 1.0 - 5.0 / (100.0 * 0.105);
        assert!(
            (s.rejection_rate - expected).abs() < 0.03,
            "rejection {} vs flow bound {expected}",
            s.rejection_rate
        );
        // Admission control still protects response times.
        assert!(s.max_response_time <= 0.250 + 1e-9);
        assert_eq!(s.qos_violations, 0);
        // Saturated pool is nearly always busy.
        assert!(s.utilization > 0.95);
    }

    #[test]
    fn response_time_never_exceeds_k_services() {
        // The admission-control invariant behind Eq. 1: with k = 2 a
        // request waits for at most one 110 ms predecessor.
        for seed in 0..3 {
            let s = run_static(3, 25.0, 500.0, 100 + seed);
            assert!(
                s.max_response_time <= 2.0 * 0.110 + 1e-9,
                "seed {seed}: max response {}",
                s.max_response_time
            );
        }
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let a = run_static(8, 50.0, 1_000.0, 42);
        let b = run_static(8, 50.0, 1_000.0, 42);
        assert_eq!(a, b);
        let c = run_static(8, 50.0, 1_000.0, 43);
        assert_ne!(a.accepted_requests, c.accepted_requests);
    }

    #[test]
    fn more_instances_monotonically_fewer_rejections() {
        let mut prev = u64::MAX;
        for m in [2u32, 4, 8, 16] {
            let s = run_static(m, 100.0, 1_000.0, 7);
            assert!(
                s.rejected_requests <= prev,
                "m={m}: {} rejections, previous {prev}",
                s.rejected_requests
            );
            prev = s.rejected_requests;
        }
    }

    fn adaptive_policy(rate_fn: Arc<dyn Fn(SimTime) -> f64 + Send + Sync>) -> Box<AdaptivePolicy> {
        let analyzer = ScheduleAnalyzer::new(rate_fn, 60.0, 0.0);
        let modeler =
            PerformanceModeler::new(QosTargets::web_paper(), 400, ModelerOptions::default());
        Box::new(AdaptivePolicy::new(Box::new(analyzer), modeler, 120.0, 4))
    }

    #[test]
    fn adaptive_settles_near_utilization_floor() {
        // Steady 100 req/s: the pool should settle around
        // λ·Tm/[0.8, 0.97] ≈ 11–13 instances and reject ~nothing.
        let s = run_sim(
            small_config(),
            poisson(100.0, 4_000.0),
            service(),
            adaptive_policy(Arc::new(|_| 100.0)),
            3,
        );
        assert_eq!(s.policy, "Adaptive");
        assert!(s.rejection_rate < 0.001, "rejection {}", s.rejection_rate);
        assert!(
            (11..=16).contains(&s.max_instances),
            "max instances {}",
            s.max_instances
        );
        assert!(s.utilization > 0.70, "utilization {}", s.utilization);
    }

    #[test]
    fn adaptive_tracks_a_step_and_scales_down_cleanly() {
        let rate_fn = Arc::new(|t: SimTime| if t.as_secs() < 2_000.0 { 100.0 } else { 20.0 });
        let s = run_sim(
            small_config(),
            vmprov_workloads::synthetic::PiecewiseRateProcess::step(
                100.0,
                20.0,
                2_000.0,
                SimTime::from_secs(4_000.0),
            ),
            service(),
            adaptive_policy(rate_fn),
            4,
        );
        // Scaled up for the first phase, down for the second.
        assert!(s.max_instances >= 11, "max {}", s.max_instances);
        assert!(s.min_instances <= 4, "min {}", s.min_instances);
        assert!(s.rejection_rate < 0.001);
        // No accepted request may be lost by the scale-down.
        assert_eq!(
            s.accepted_requests,
            s.offered_requests - s.rejected_requests
        );
        // VM hours far below the peak-static equivalent (13 × 4000 s).
        assert!(s.vm_hours < 13.0 * 4_000.0 / 3_600.0);
    }

    /// Counts completed requests and requests lost to crashes.
    #[derive(Default)]
    struct Outcomes {
        completions: u64,
        lost: u64,
    }

    impl Probe for Outcomes {
        fn on_service_complete(&mut self, _: SimTime, _: u32, _: f64, _: f64) {
            self.completions += 1;
        }
        fn on_vm_crash(&mut self, _: SimTime, _: u32, lost_requests: u64) {
            self.lost += lost_requests;
        }
    }

    #[test]
    fn completions_equal_accepted_requests() {
        // Every accepted request completes exactly once (the drain
        // invariant): metrics.response counts completions.
        let (s, outcomes) = SimBuilder::new(small_config())
            .workload(poisson(50.0, 1_000.0))
            .service(service())
            .policy(Box::new(StaticPolicy::new(6, QosTargets::web_paper())))
            .dispatcher(RoundRobin::new())
            .probe(Outcomes::default())
            .run_probed(&RngFactory::new(9));
        assert_eq!(
            outcomes.completions,
            s.offered_requests - s.rejected_requests
        );
    }

    #[test]
    fn boot_delay_defers_capacity() {
        // With a 300 s boot delay and a pool that starts at 1 instance,
        // early requests are rejected until capacity arrives.
        let mut cfg = small_config();
        cfg.boot_delay = 300.0;
        let s = run_sim(
            cfg,
            poisson(50.0, 2_000.0),
            service(),
            adaptive_policy(Arc::new(|_| 50.0)),
            11,
        );
        // Some early rejections are unavoidable…
        assert!(s.rejected_requests > 0);
        // …but far fewer than a permanently under-provisioned pool.
        assert!(s.rejection_rate < 0.25, "rejection {}", s.rejection_rate);
    }

    /// A policy that walks a fixed list of targets, one per evaluation,
    /// at a fixed queue capacity `k`.
    struct TargetSequence {
        targets: Vec<u32>,
        idx: std::cell::Cell<usize>,
        period: f64,
        k: u32,
    }

    impl vmprov_core::policy::ProvisioningPolicy for TargetSequence {
        fn name(&self) -> String {
            "TargetSequence".into()
        }
        fn initial_instances(&self) -> u32 {
            self.targets[0]
        }
        fn evaluate(&mut self, _status: &vmprov_core::policy::PoolStatus) -> u32 {
            let i = self.idx.get();
            let t = self.targets[i.min(self.targets.len() - 1)];
            self.idx.set(i + 1);
            t
        }
        fn next_evaluation(&self, now: SimTime) -> SimTime {
            now + self.period
        }
        fn queue_capacity(&self, _monitored_service_time: f64) -> u32 {
            self.k
        }
    }

    #[test]
    fn scale_up_revives_draining_instances_before_booting_new() {
        // A deterministic trace puts one long 100 s request on each of
        // the 10 instances at t = 5, so the t = 30 scale-down to 2 finds
        // every instance busy and leaves 8 *draining*; the t = 60
        // scale-up back to 10 must revive them instead of booting new
        // VMs (§IV-C). A second burst after the first finishes checks
        // the revived fleet actually serves.
        let mut cfg = SimConfig::paper(100.0, 250.0);
        cfg.hosts = 10;
        cfg.monitor_interval = 10.0;
        let policy = TargetSequence {
            targets: vec![10, 2, 10, 10],
            idx: std::cell::Cell::new(0),
            period: 30.0,
            k: 2,
        };
        let burst = |t: f64| vmprov_workloads::ArrivalBatch {
            time: SimTime::from_secs(t),
            count: 10,
            spread: 0.0,
        };
        let trace = vmprov_workloads::Trace::new(vec![burst(5.0), burst(120.0)]).unwrap();
        let s = run_sim(
            cfg,
            trace.replay(),
            ServiceModel::new(100.0, 0.0),
            Box::new(policy),
            51,
        );
        // Every VM that ever existed was part of the initial fleet: the
        // revive path avoided fresh boots.
        assert_eq!(s.vms_created, 10, "revive must not boot new VMs: {s:?}");
        assert_eq!(s.max_instances, 10);
        assert_eq!(s.min_instances, 10, "draining instances still exist");
        assert_eq!(s.rejected_requests, 0);
        assert_eq!(s.accepted_requests, 20);
    }

    #[test]
    fn failures_kill_and_policy_replaces() {
        let mut cfg = small_config();
        cfg.instance_mtbf = Some(400.0); // aggressive: ~5 failures per VM-run
        let s = run_sim(
            cfg,
            poisson(50.0, 2_000.0),
            service(),
            adaptive_policy(Arc::new(|_| 50.0)),
            41,
        );
        assert!(s.instance_failures > 5, "failures {}", s.instance_failures);
        // Replacement keeps service going: rejection stays small even
        // though instances keep dying.
        assert!(s.rejection_rate < 0.05, "rejection {}", s.rejection_rate);
        // Lost requests are accounted separately from rejections.
        assert!(s.requests_lost_to_failures > 0);
        // Accepted = completed + lost-in-crash.
        let completed = s.accepted_requests - s.requests_lost_to_failures;
        assert!(completed > 0);
    }

    #[test]
    fn failures_with_static_pool_degrade_it() {
        // A static pool is re-filled by its (constant) policy target at
        // the failure-triggered evaluation, so it also survives.
        let mut cfg = small_config();
        cfg.instance_mtbf = Some(300.0);
        let s = run_sim(
            cfg,
            poisson(30.0, 1_500.0),
            service(),
            Box::new(StaticPolicy::new(6, QosTargets::web_paper())),
            43,
        );
        assert!(s.instance_failures > 3);
        // Pool repeatedly restored to 6.
        assert_eq!(s.max_instances, 6);
        assert!(s.vms_created > 6);
    }

    #[test]
    fn host_capacity_limits_fleet() {
        // 2 hosts × 8 cores = 16 VMs max; the policy wants ~40.
        let mut cfg = small_config();
        cfg.hosts = 2;
        let s = run_sim(
            cfg,
            poisson(300.0, 500.0),
            service(),
            adaptive_policy(Arc::new(|_| 300.0)),
            13,
        );
        assert!(s.max_instances <= 16, "max {}", s.max_instances);
        assert!(s.vm_creation_failures > 0);
        // Overflow traffic is rejected, not lost.
        assert!(s.rejection_rate > 0.3);
    }

    #[test]
    fn an_underloaded_pool_handles_about_one_event_per_request() {
        // k = 2 on 10 instances at ρ ≈ 0.4 each: round-robin spreads the
        // arrivals, so an admission rarely fills an instance, and only a
        // fill (or a control tick) adds an event beside the arrival.
        let builder = SimBuilder::new(small_config())
            .workload(poisson(40.0, 500.0))
            .service(service())
            .policy(Box::new(StaticPolicy::new(10, QosTargets::web_paper())))
            .dispatcher(RoundRobin::new());
        let mut group = RunGroup::start(vec![builder], &RngFactory::new(21), None);
        group.advance_before(SimTime::from_secs(f64::MAX));
        let steps = group.runs[0].steps();
        let (s, _) = group.finish(None).pop().expect("one run");
        assert!(s.offered_requests > 15_000, "{s:?}");
        let per_request = steps as f64 / s.offered_requests as f64;
        assert!(
            per_request <= 1.05,
            "{per_request:.3} events per request ({steps} for {} requests)",
            s.offered_requests
        );
    }

    #[test]
    fn a_rejected_arrival_adds_no_event_list_entry() {
        // Two k = 2 instances offered 100 req/s: most arrivals find the
        // pool full, and such an arrival schedules nothing.
        let parts = SimBuilder::new(small_config())
            .service(service())
            .policy(Box::new(StaticPolicy::new(2, QosTargets::web_paper())))
            .dispatcher(RoundRobin::new())
            .into_parts();
        let mut engine = CloudSim::build_engine(
            parts.cfg,
            SimTime::from_secs(50.0),
            parts.service,
            parts.policy,
            parts.dispatcher,
            &RngFactory::new(5),
            parts.probe,
            None,
        );
        let mut rejects = 0;
        for i in 0..5_000 {
            let t = SimTime::from_secs(f64::from(i) * 0.01);
            // The queued events up to the arrival's instant go first, so
            // the dispatch below handles the arrival alone.
            engine.run_until(t);
            let (pending, rejected, steps) = (
                engine.pending(),
                engine.world().metrics.rejected,
                engine.steps(),
            );
            assert_eq!(engine.dispatch_run(&[t], Event::Arrival), 1);
            assert_eq!(engine.steps(), steps + 1);
            if engine.world().metrics.rejected > rejected {
                rejects += 1;
                assert_eq!(engine.pending(), pending, "a rejection scheduled an event");
            }
        }
        assert_eq!(engine.world().metrics.offered, 5_000);
        assert!(
            rejects > 2_500,
            "only {rejects} rejections: the pool is not saturated"
        );
    }

    /// The departures of `n` back-to-back requests of length `svc` that
    /// all reach an idle instance at `t0`, by the simulator's recurrence.
    fn departures(t0: f64, svc: f64, n: usize) -> Vec<f64> {
        let mut d = t0;
        (0..n)
            .map(|_| {
                d += svc;
                d
            })
            .collect()
    }

    #[test]
    fn a_crash_loses_exactly_the_requests_not_yet_departed() {
        // Five 0.1 s requests reach one k = 5 instance at t = 1; a crash
        // at t completes those departed by t (a departure at exactly t
        // included) and loses the rest.
        let deps = departures(1.0, 0.1, 5);
        for crash in [1.05, 1.15, deps[1], 1.33, deps[4], 2.0] {
            let burst = vmprov_workloads::ArrivalBatch {
                time: SimTime::from_secs(1.0),
                count: 5,
                spread: 0.0,
            };
            let late = vmprov_workloads::ArrivalBatch {
                time: SimTime::from_secs(10.0),
                count: 1,
                spread: 0.0,
            };
            let trace = vmprov_workloads::Trace::new(vec![burst, late]).unwrap();
            let builder = SimBuilder::new(SimConfig::paper(0.1, 0.55))
                .workload(trace.replay())
                .service(ServiceModel::new(0.1, 0.0))
                .policy(Box::new(StaticPolicy::new(
                    1,
                    QosTargets::new(0.55, 0.0, 0.8),
                )))
                .dispatcher(RoundRobin::new())
                .probe(Outcomes::default());
            let mut group = RunGroup::start(vec![builder], &RngFactory::new(3), None);
            group.runs[0].schedule(SimTime::from_secs(crash), Event::Failure { slot: 0 });
            let (s, outcomes) = group.finish(None).pop().expect("one run");
            let lost = deps.iter().filter(|&&d| d > crash).count() as u64;
            assert_eq!(s.instance_failures, 1, "crash at {crash}");
            assert_eq!(s.requests_lost_to_failures, lost, "crash at {crash}");
            assert_eq!(outcomes.lost, lost, "crash at {crash}");
            assert_eq!(s.accepted_requests, 6, "crash at {crash}");
            assert_eq!(outcomes.completions, 6 - lost, "crash at {crash}");
        }
    }

    /// Records the drain, revive and destroy instants of every slot.
    #[derive(Default)]
    struct Lifecycle(Vec<(&'static str, f64, u32)>);

    impl Probe for Lifecycle {
        fn on_vm_drain(&mut self, now: SimTime, slot: u32) {
            self.0.push(("drain", now.as_secs(), slot));
        }
        fn on_vm_revive(&mut self, now: SimTime, slot: u32) {
            self.0.push(("revive", now.as_secs(), slot));
        }
        fn on_vm_destroy(&mut self, now: SimTime, slot: u32) {
            self.0.push(("destroy", now.as_secs(), slot));
        }
    }

    /// Two k = 5 instances each take three 1 s requests at t = 0.5; the
    /// policy walks `targets`, one per second, so the t = 1 scale-down
    /// to 1 drains `active[0]`, whose last request departs at 3.5.
    fn drain_run(targets: Vec<u32>) -> (RunSummary, Lifecycle) {
        let burst = |t: f64, count: u64| vmprov_workloads::ArrivalBatch {
            time: SimTime::from_secs(t),
            count,
            spread: 0.0,
        };
        let trace = vmprov_workloads::Trace::new(vec![burst(0.5, 6), burst(20.0, 1)]).unwrap();
        let policy = TargetSequence {
            targets,
            idx: std::cell::Cell::new(0),
            period: 1.0,
            k: 5,
        };
        SimBuilder::new(SimConfig::paper(1.0, 5.5))
            .workload(trace.replay())
            .service(ServiceModel::new(1.0, 0.0))
            .policy(Box::new(policy))
            .dispatcher(RoundRobin::new())
            .probe(Lifecycle::default())
            .run_probed(&RngFactory::new(8))
    }

    #[test]
    fn a_draining_instance_dies_at_its_last_departure() {
        let (s, log) = drain_run(vec![2, 1]);
        let drained = log.0[0];
        assert_eq!((drained.0, drained.1), ("drain", 1.0), "{:?}", log.0);
        let deaths: Vec<_> = log.0.iter().filter(|e| e.0 == "destroy").collect();
        assert_eq!(deaths, [&("destroy", 3.5, drained.2)], "{:?}", log.0);
        assert_eq!(s.accepted_requests, 7);
        assert_eq!(s.max_response_time, 3.0);
    }

    #[test]
    fn a_revive_before_the_last_departure_cancels_the_destruction() {
        let (s, log) = drain_run(vec![2, 1, 2]);
        let drained = log.0[0];
        assert_eq!((drained.0, drained.1), ("drain", 1.0), "{:?}", log.0);
        assert_eq!(log.0[1], ("revive", 2.0, drained.2), "{:?}", log.0);
        assert!(
            log.0.iter().all(|e| e.0 != "destroy"),
            "a revived instance was destroyed: {:?}",
            log.0
        );
        assert_eq!(s.vms_created, 2);
        assert_eq!(s.accepted_requests, 7);
        assert_eq!(s.max_response_time, 3.0);
    }

    /// A static pool that records the arrival rate each evaluation is
    /// handed.
    struct RateLog {
        seen: Arc<std::sync::Mutex<Vec<(f64, f64)>>>,
    }

    impl ProvisioningPolicy for RateLog {
        fn name(&self) -> String {
            "RateLog".into()
        }
        fn initial_instances(&self) -> u32 {
            10
        }
        fn evaluate(&mut self, status: &PoolStatus) -> u32 {
            let rate = status.monitor.observed_arrival_rate;
            self.seen.lock().unwrap().push((status.now.as_secs(), rate));
            10
        }
        fn next_evaluation(&self, now: SimTime) -> SimTime {
            now + 10.0
        }
        fn queue_capacity(&self, monitored_service_time: f64) -> u32 {
            QosTargets::web_paper().queue_capacity(monitored_service_time)
        }
    }

    /// Records every arrival instant.
    #[derive(Default)]
    struct ArrivalLog(Vec<f64>);

    impl Probe for ArrivalLog {
        fn on_arrival(&mut self, now: SimTime, _class: RequestClass) {
            self.0.push(now.as_secs());
        }
    }

    #[test]
    fn an_evaluation_on_the_monitor_grid_sees_the_closed_window_rate() {
        // Evaluations and monitor ticks share the 10 s grid; the tick
        // closes its window first, and the evaluation must report that
        // window, not the one the tick just opened.
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (_, arrivals) = SimBuilder::new(small_config())
            .workload(poisson(50.0, 100.0))
            .service(service())
            .policy(Box::new(RateLog { seen: seen.clone() }))
            .dispatcher(RoundRobin::new())
            .probe(ArrivalLog::default())
            .run_probed(&RngFactory::new(17));
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 11, "{seen:?}");
        assert_eq!(seen[0], (0.0, 0.0), "no window has closed at t = 0");
        for &(t, rate) in &seen[1..] {
            let count = arrivals
                .0
                .iter()
                .filter(|&&a| a >= t - 10.0 && a < t)
                .count();
            assert_eq!(rate, count as f64 / 10.0, "evaluation at {t}");
            assert!(rate > 30.0, "evaluation at {t} read {rate} req/s of 50");
        }
    }
}

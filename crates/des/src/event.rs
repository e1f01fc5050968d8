//! Pending-event set (future-event list).
//!
//! [`EventQueue`] is a future-event list keyed by [`SimTime`]. Events
//! with equal timestamps are delivered in a fixed order, which keeps
//! simulations deterministic regardless of the backing structure:
//! individually scheduled events first, in insertion (FIFO) order, then
//! bulk-released ones ([`EventQueue::schedule_run`]) in release order.
//!
//! Two interchangeable backends implement the set ([`FelBackend`]):
//!
//! * **Calendar queue** (default) — Brown's bucketed priority queue
//!   ("Calendar Queues: A Fast O(1) Priority Queue Implementation for
//!   the Simulation Event Set Problem", CACM 1988) with an
//!   auto-resizing bucket count and width. Amortized O(1) schedule and
//!   pop, which is what the day-long trace replays of Figs. 5–8 spend
//!   their time on.
//! * **Binary heap** — the previous `BinaryHeap` implementation, kept
//!   as the reference backend; the A/B determinism tests assert both
//!   produce bit-identical simulations.
//!
//! [`EventQueue::schedule`] returns an [`EventHandle`] that can later be
//! passed to [`EventQueue::cancel`], so models can withdraw timers
//! (boot deadlines, failure clocks) outright instead of filtering
//! tombstones at dispatch time.
//!
//! [`EventQueue::schedule_run`] bulk-inserts a *monotone run* — many
//! clones of one event at non-decreasing times. Its entries carry ids
//! with the [`LATE`] bit set, so at an equal timestamp they pop after
//! every individually scheduled event, however early they were
//! released. On the calendar backend the run is staged as a sorted
//! array and merged into the pop order by `(time, id)` instead of being
//! distributed into buckets, so an arrival burst costs one append and
//! O(1) per pop; the heap backend schedules runs entry by entry,
//! keeping it the reference the A/B tests compare against.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Identifies one scheduled (and not yet delivered) event.
///
/// Handles are cheap to copy and carry the event's timestamp so the
/// calendar backend can locate the entry without a search. A handle is
/// *live* from [`EventQueue::schedule`] until the event is popped or
/// cancelled; cancelling a handle that is no longer live returns
/// `false` on the calendar backend and is a caller contract violation
/// on the heap backend (see [`EventQueue::cancel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    id: u64,
    time: SimTime,
}

impl EventHandle {
    /// The scheduled firing time of the event this handle refers to.
    #[inline]
    pub fn time(&self) -> SimTime {
        self.time
    }
}

/// Which data structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FelBackend {
    /// Auto-resizing calendar queue (amortized O(1)).
    #[default]
    Calendar,
    /// Binary heap (O(log n)); the reference implementation.
    BinaryHeap,
}

// ---------------------------------------------------------------------
// Binary-heap backend
// ---------------------------------------------------------------------

struct HeapEntry<E> {
    time: SimTime,
    id: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, id)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Heap backend: O(log n) schedule/pop, *lazy* cancellation (cancelled
/// ids are skipped when they surface at the top of the heap).
struct HeapFel<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    cancelled: HashSet<u64>,
}

impl<E> HeapFel<E> {
    fn with_capacity(cap: usize) -> Self {
        HeapFel {
            heap: BinaryHeap::with_capacity(cap),
            cancelled: HashSet::new(),
        }
    }

    #[inline]
    fn schedule(&mut self, time: SimTime, id: u64, event: E) {
        self.heap.push(HeapEntry { time, id, event });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(e) = self.heap.pop() {
            if self.cancelled.is_empty() || !self.cancelled.remove(&e.id) {
                return Some((e.time, e.event));
            }
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(e) = self.heap.peek() {
            if self.cancelled.is_empty() || !self.cancelled.contains(&e.id) {
                return Some(e.time);
            }
            let e = self.heap.pop().expect("peeked");
            self.cancelled.remove(&e.id);
        }
        None
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        // Lazy: the entry stays in the heap until it surfaces. We cannot
        // tell a live handle from an already-fired one here, which is
        // why `EventQueue::cancel` documents the liveness contract.
        self.cancelled.insert(handle.id)
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
    }
}

// ---------------------------------------------------------------------
// Calendar-queue backend
// ---------------------------------------------------------------------

struct CalEntry<E> {
    time: f64,
    id: u64,
    event: E,
}

/// Cached location of the earliest entry (filled by `peek_time`, reused
/// by the next `pop` so `run_until` does not scan twice per step).
/// Carries the entry's `(time, id)` key so tie-break comparisons during
/// the scan never chase `buckets[bucket][index]` again.
#[derive(Clone, Copy)]
struct PeekCache {
    bucket: usize,
    index: usize,
    time: f64,
    id: u64,
    window: u64,
}

/// Brown's calendar queue with power-of-two bucket counts.
///
/// Time is divided into windows of `width` seconds; window `k` (an
/// absolute `u64` index) maps to bucket `k % nbuckets`. The cursor
/// walks windows in order; a pop scans the cursor's bucket for the
/// minimum `(time, id)` entry belonging to the current window and
/// advances the cursor across empty windows. If a whole lap (one full
/// wrap of the buckets) finds nothing, the minimum seen during the lap
/// is taken directly — the "long jump" across sparse stretches.
///
/// Window membership is decided by the integer window index
/// `(time * inv_width) as u64`, never by comparing against a
/// floating-point window boundary, so bucketing and the pop scan can
/// never disagree about which window an entry belongs to.
struct Calendar<E> {
    /// Bucket storage. Only the first `nbuckets` are addressable (the
    /// mask keeps indices below `nbuckets`); the vector itself never
    /// shrinks, so a shrink → regrow cycle reuses both the spine and
    /// every bucket's capacity instead of reallocating them.
    buckets: Vec<Vec<CalEntry<E>>>,
    /// Active bucket count (a power of two; `mask = nbuckets - 1`).
    nbuckets: usize,
    mask: usize,
    width: f64,
    inv_width: f64,
    len: usize,
    /// Absolute window index the cursor is currently scanning.
    window: u64,
    /// Lower bound on every pending time (the last popped time).
    floor: f64,
    peek: Option<PeekCache>,
    /// Consecutive pops resolved by the long-jump fallback; a streak
    /// means the width no longer matches the event spacing.
    famine_streak: u32,
    /// Bucket entries scanned by pops since the last width
    /// re-estimate. A crowd-triggered resize must be paid for by at
    /// least `len + buckets` of scan work, so rebuilds cost a constant
    /// factor of the scanning they eliminate — overfull buckets force
    /// a re-estimate within ~`len / m` pops, while a distribution the
    /// estimator cannot spread (e.g. thousands of identical
    /// timestamps) never rebuilds faster than it scans.
    scan_debt: usize,
    /// Entry staging area for rebuilds, retained across resizes so the
    /// steady-state resize path allocates nothing once warm.
    scratch: Vec<CalEntry<E>>,
    /// Timestamp sample buffer for width estimation, likewise retained.
    times_scratch: Vec<f64>,
}

const MIN_BUCKETS: usize = 16;
/// Target mean entries per bucket after a resize. Brown recommends a
/// small constant; profiling the trace-replay pop loop put the optimum
/// below his 3.0 — at 3.0 each `locate_min` scanned ~4.5 entries per
/// pop, while 1.5 roughly halves that for only ~13% more empty-window
/// hops (the hop is a masked index + an empty-`Vec` length check,
/// much cheaper than an entry compare).
const WIDTH_GAP_FACTOR: f64 = 1.5;
/// A pop that leaves this many entries in the scanned bucket signals a
/// width far too coarse for the local event spacing (the grow rule keeps
/// the *mean* occupancy at ≤ 2): time to re-estimate. Seen in hold-model
/// churn, where the pending set contracts from its prefill span into a
/// few mean-increments without the length ever changing.
const CROWDED_BUCKET: usize = 32;

/// Set in the insertion id of every entry released through
/// [`EventQueue::schedule_run`], on every route (staged, per-entry
/// fallback, spill). Ids order ties, so a bulk-released entry pops after
/// every [`EventQueue::schedule`]d entry at the same instant — even one
/// scheduled later — and bulk entries keep release order among
/// themselves. A simulator that releases arrivals ahead of time thus
/// sees the same same-instant order as one that releases each arrival
/// batch at its own instant. Handles never carry the bit.
const LATE: u64 = 1 << 63;

/// Below this length a bulk run is scheduled entry by entry: the staging
/// overhead (buffer swap, merge checks on every subsequent pop) only
/// pays off once a run amortizes it across many entries.
const MIN_RUN: usize = 8;

/// Pop scans every staged run for the earliest head, so the stage is
/// kept shallow: once `schedule_run` would exceed this depth, the
/// staged run with the latest head is spilled into the calendar entry
/// by entry (insertion ids preserved, so pop order is unaffected).
/// Bounds the per-pop scan no matter how many runs a caller stages
/// before draining; the simulator's cadence never exceeds one or two.
const MAX_STAGED_RUNS: usize = 8;

/// A bulk-scheduled monotone run: `times[cursor..]` are the pending
/// firing times (non-decreasing), and entry `i` carries the late
/// insertion id `first_id + i` — the same ids the per-entry fallback
/// would have assigned, so merging runs into the pop order by
/// `(time, id)` reproduces the per-entry schedule exactly (ties
/// included).
///
/// Every entry of a run carries a clone of the same payload, so
/// `events` is drained back to front without tracking which clone maps
/// to which time.
struct RunStage<E> {
    times: Vec<f64>,
    events: Vec<E>,
    first_id: u64,
    cursor: usize,
}

impl<E> RunStage<E> {
    fn empty() -> Self {
        RunStage {
            times: Vec::new(),
            events: Vec::new(),
            first_id: 0,
            cursor: 0,
        }
    }

    /// `(time, id)` key of the next pending entry, if any.
    #[inline]
    fn head(&self) -> Option<(f64, u64)> {
        self.times
            .get(self.cursor)
            .map(|&t| (t, self.first_id + self.cursor as u64))
    }
}

impl<E> Calendar<E> {
    fn with_capacity(cap: usize) -> Self {
        let n = (cap / 2).next_power_of_two().max(MIN_BUCKETS);
        Calendar {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            nbuckets: n,
            mask: n - 1,
            width: 1.0,
            inv_width: 1.0,
            len: 0,
            window: 0,
            floor: 0.0,
            peek: None,
            famine_streak: 0,
            scan_debt: 0,
            scratch: Vec::new(),
            times_scratch: Vec::new(),
        }
    }

    #[inline]
    fn window_of(&self, t: f64) -> u64 {
        (t * self.inv_width) as u64
    }

    #[inline]
    fn schedule(&mut self, time: SimTime, id: u64, event: E) {
        let t = time.as_secs();
        let w = self.window_of(t);
        // An entry landing behind the cursor (possible only through
        // schedules at the current instant after the cursor advanced
        // over empty windows) pulls the cursor back so the scan cannot
        // miss it.
        if w < self.window {
            self.window = w;
        }
        if let Some(p) = self.peek {
            if t < p.time {
                self.peek = None;
            }
        }
        let b = (w as usize) & self.mask;
        self.buckets[b].push(CalEntry { time: t, id, event });
        self.len += 1;
        if self.len > self.nbuckets * 2 {
            self.resize(self.nbuckets * 2);
        }
    }

    /// Finds the earliest live entry without removing it, advancing the
    /// persistent cursor over empty windows on the way.
    fn locate_min(&mut self) -> Option<PeekCache> {
        if self.len == 0 {
            return None;
        }
        if let Some(p) = self.peek {
            return Some(p);
        }
        let n = self.nbuckets;
        // Fast lap: find the first window with a due entry. The famine
        // fallback (a whole empty lap) is rare and pays for its own
        // second scan below, so the hot loop tracks nothing global.
        for (lap, window) in (self.window..).take(n).enumerate() {
            let b = (window as usize) & self.mask;
            let mut local: Option<PeekCache> = None;
            for (i, e) in self.buckets[b].iter().enumerate() {
                let ew = self.window_of(e.time);
                debug_assert!(ew >= window || lap > 0, "stranded entry behind cursor");
                if ew <= window && local.is_none_or(|m| (e.time, e.id) < (m.time, m.id)) {
                    local = Some(PeekCache {
                        bucket: b,
                        index: i,
                        time: e.time,
                        id: e.id,
                        window: ew,
                    });
                }
            }
            if let Some(found) = local {
                self.window = window;
                self.famine_streak = 0;
                self.peek = Some(found);
                return Some(found);
            }
        }
        // One full lap was empty: every pending entry sits beyond the
        // lap span, so scan once more for the global minimum and
        // long-jump the cursor to it.
        let mut global: Option<PeekCache> = None;
        for (b, bucket) in self.buckets[..n].iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                if global.is_none_or(|m| (e.time, e.id) < (m.time, m.id)) {
                    global = Some(PeekCache {
                        bucket: b,
                        index: i,
                        time: e.time,
                        id: e.id,
                        window: self.window_of(e.time),
                    });
                }
            }
        }
        let found = global.expect("len > 0 but no entries in any bucket");
        self.window = found.window;
        self.famine_streak += 1;
        self.peek = Some(found);
        Some(found)
    }

    /// `(time, id)` key of the earliest entry, for merging against
    /// staged bulk runs without popping.
    #[inline]
    fn peek_key(&mut self) -> Option<(f64, u64)> {
        self.locate_min().map(|p| (p.time, p.id))
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let p = self.locate_min()?;
        self.peek = None;
        let entry = self.buckets[p.bucket].swap_remove(p.index);
        self.len -= 1;
        self.scan_debt += self.buckets[p.bucket].len() + 1;
        self.window = p.window;
        self.floor = entry.time;
        let n = self.nbuckets;
        if self.famine_streak > 8 {
            // The spacing estimate went stale (e.g. a burst drained and
            // left sparse long-range timers): re-derive the width.
            self.famine_streak = 0;
            self.resize(n);
        } else if self.buckets[p.bucket].len() >= CROWDED_BUCKET && self.scan_debt >= self.len + n {
            // The opposite failure: the width is far too coarse, so the
            // whole pending set crowds into a few windows and every pop
            // scans one overfull bucket. Re-estimate (paid for by the
            // scans since the last rebuild).
            self.resize(n);
        } else if n > MIN_BUCKETS && self.len < n / 2 {
            self.resize(n / 2);
        }
        Some((SimTime::from_secs(entry.time), entry.event))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.locate_min().map(|p| SimTime::from_secs(p.time))
    }

    fn cancel(&mut self, handle: EventHandle) -> bool {
        let b = (self.window_of(handle.time.as_secs()) as usize) & self.mask;
        match self.buckets[b].iter().position(|e| e.id == handle.id) {
            Some(i) => {
                self.buckets[b].swap_remove(i);
                self.len -= 1;
                self.peek = None;
                true
            }
            None => false,
        }
    }

    /// Rebuilds with `n` buckets and a bucket width re-estimated from
    /// the current entries' spacing.
    ///
    /// Allocation-free once warm: entries drain into the retained
    /// `scratch` vector, the bucket spine only ever grows (shrinks just
    /// lower `nbuckets`/`mask`, keeping the tail buckets' capacity for
    /// the next regrow), and the width estimator samples into its own
    /// retained buffer.
    fn resize(&mut self, n: usize) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for b in &mut self.buckets[..self.nbuckets] {
            scratch.append(b);
        }
        self.width =
            estimate_width(&scratch, self.floor, &mut self.times_scratch).unwrap_or(self.width);
        self.inv_width = 1.0 / self.width;
        if self.nbuckets != n {
            if n > self.buckets.len() {
                self.buckets.resize_with(n, Vec::new);
            }
            self.nbuckets = n;
            self.mask = n - 1;
        }
        self.window = self.window_of(self.floor);
        self.peek = None;
        self.scan_debt = 0;
        for e in scratch.drain(..) {
            let b = (self.window_of(e.time) as usize) & self.mask;
            self.buckets[b].push(e);
        }
        self.scratch = scratch;
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.window = 0;
        self.floor = 0.0;
        self.peek = None;
        self.famine_streak = 0;
        self.scan_debt = 0;
    }
}

/// Estimates a bucket width targeting [`WIDTH_GAP_FACTOR`] entries per
/// window, from the typical spacing at the *head* (earliest times) of
/// the pending set — the events the cursor will meet next. A global
/// estimate fails on bimodal sets: a handful of far-future timers
/// (failure clocks, horizon markers) would stretch the width until the
/// dense near-term cluster shares one bucket, and a dense head cluster
/// would equally hide behind a long sparse tail.
fn estimate_width<E>(entries: &[CalEntry<E>], floor: f64, times: &mut Vec<f64>) -> Option<f64> {
    if entries.len() < 2 {
        return None;
    }
    // The width must match the spacing of the events about to be
    // dequeued (Brown's rule), so sample the true head: the smallest
    // `MAX_SAMPLE + 1` times, selected in O(len). A strided global
    // sample misses a dense head cluster entirely once the stride
    // exceeds the cluster size.
    const MAX_SAMPLE: usize = 256;
    let finite = |a: &f64, b: &f64| a.partial_cmp(b).expect("times are finite");
    times.clear();
    times.extend(entries.iter().map(|e| e.time));
    let last = (times.len() - 1).min(MAX_SAMPLE);
    times.select_nth_unstable_by(last, finite);
    let sample = &mut times[..=last];
    sample.sort_by(finite);
    // Scan cost is set by the *densest* region at the head, so take
    // the minimum per-entry gap over geometric head prefixes: a short
    // prefix inside a dense cluster sees the cluster's true spacing
    // even when a longer span would be diluted by a sparser tail.
    // Prefixes start at 4 gaps so one coincidentally-close pair cannot
    // collapse the width.
    let mut gap = f64::INFINITY;
    let mut k = 4.min(last);
    loop {
        let span = sample[k] - sample[0];
        if span > 0.0 {
            gap = gap.min(span / k as f64);
        }
        if k == last {
            break;
        }
        k = (k * 2).min(last);
    }
    if !gap.is_finite() {
        // The whole head is one burst of identical timestamps: no
        // width can spread it, so keep the current one.
        return None;
    }
    let width = WIDTH_GAP_FACTOR * gap;
    // Keep the width positive and large enough that absolute window
    // indices fit comfortably in u64 even at the end of a long run.
    let hi = sample[last];
    let min_width = (floor.abs().max(hi.abs()) * 1e-12).max(1e-9);
    Some(width.max(min_width))
}

// ---------------------------------------------------------------------
// Public queue
// ---------------------------------------------------------------------

enum Fel<E> {
    Heap(HeapFel<E>),
    Calendar(Calendar<E>),
}

/// A future-event list with deterministic tie-breaking (FIFO among
/// single events, bulk-released entries last) and event cancellation.
pub struct EventQueue<E> {
    fel: Fel<E>,
    next_id: u64,
    live: usize,
    /// Staged bulk runs ([`Self::schedule_run`]), calendar backend only
    /// — the heap backend schedules runs entry by entry so the A/B
    /// determinism tests exercise the merge against a run-free
    /// reference. Almost always zero or one run deep.
    runs: Vec<RunStage<E>>,
    /// Retired run buffers kept for reuse, so steady-state bulk
    /// scheduling allocates nothing once warm.
    spare_runs: Vec<RunStage<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default (calendar) backend.
    pub fn new() -> Self {
        Self::with_capacity_and_backend(0, FelBackend::default())
    }

    /// Creates an empty queue on the given backend.
    pub fn with_backend(backend: FelBackend) -> Self {
        Self::with_capacity_and_backend(0, backend)
    }

    /// Creates an empty queue with pre-allocated capacity (default
    /// backend).
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_backend(cap, FelBackend::default())
    }

    /// Creates an empty queue with pre-allocated capacity on the given
    /// backend.
    pub fn with_capacity_and_backend(cap: usize, backend: FelBackend) -> Self {
        let fel = match backend {
            FelBackend::BinaryHeap => Fel::Heap(HeapFel::with_capacity(cap)),
            FelBackend::Calendar => Fel::Calendar(Calendar::with_capacity(cap)),
        };
        EventQueue {
            fel,
            next_id: 0,
            live: 0,
            runs: Vec::new(),
            spare_runs: Vec::new(),
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> FelBackend {
        match self.fel {
            Fel::Heap(_) => FelBackend::BinaryHeap,
            Fel::Calendar(_) => FelBackend::Calendar,
        }
    }

    /// Schedules `event` to fire at absolute time `time`; the returned
    /// handle can cancel it while it is still pending.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventHandle {
        let id = self.next_id;
        self.insert(time, id, event);
        EventHandle { id, time }
    }

    /// Inserts one entry under `id` into the backend and advances the
    /// id counter.
    #[inline]
    fn insert(&mut self, time: SimTime, id: u64, event: E) {
        self.next_id += 1;
        match &mut self.fel {
            Fel::Heap(h) => h.schedule(time, id, event),
            Fel::Calendar(c) => c.schedule(time, id, event),
        }
        self.live += 1;
    }

    /// Bulk-schedules one clone of `event` at every time in `times`.
    ///
    /// Entries receive consecutive *late* insertion ids in slice order
    /// (the `LATE` bit set): at an equal timestamp they pop after
    /// every entry placed by [`schedule`](Self::schedule), whenever
    /// that was scheduled, and after entries of earlier
    /// `schedule_run` calls. Every route below assigns the same ids, so
    /// pop order is identical whether or not the staged path engages.
    /// Returns `times.len()`.
    ///
    /// **Monotonicity precondition:** the fast path stages the run as a
    /// sorted array and merges it into the pop order by `(time, id)`,
    /// which requires `times` to be non-decreasing. A non-monotone
    /// slice is detected in one pass and falls back to per-entry
    /// scheduling — still correct, just not O(1) per entry. Runs
    /// shorter than `MIN_RUN` and the heap backend (the reference
    /// implementation) also take the per-entry path.
    ///
    /// The stage is at most [`MAX_STAGED_RUNS`] deep: staging beyond
    /// that spills the latest-firing staged run into the calendar
    /// (ids preserved), so pathological stage-everything-then-drain
    /// callers degrade to per-entry cost instead of an O(depth) scan
    /// on every pop.
    ///
    /// Run entries cannot be cancelled: no handles are returned.
    pub fn schedule_run(&mut self, times: &[SimTime], event: E) -> usize
    where
        E: Clone,
    {
        let monotone = times.windows(2).all(|w| w[0] <= w[1]);
        if times.len() < MIN_RUN || !monotone || matches!(self.fel, Fel::Heap(_)) {
            for &t in times {
                self.insert(t, LATE | self.next_id, event.clone());
            }
            return times.len();
        }
        if self.runs.len() >= MAX_STAGED_RUNS {
            self.spill_latest_run();
        }
        let mut run = self.spare_runs.pop().unwrap_or_else(RunStage::empty);
        run.times.clear();
        run.times.extend(times.iter().map(|t| t.as_secs()));
        run.events.clear();
        run.events.resize(times.len(), event);
        run.first_id = LATE | self.next_id;
        run.cursor = 0;
        self.next_id += times.len() as u64;
        self.live += times.len();
        self.runs.push(run);
        times.len()
    }

    /// Spills the staged run with the *latest* head into the calendar
    /// entry by entry, preserving every entry's insertion id — so pop
    /// order is untouched, the run merely loses its O(1) staging.
    ///
    /// The latest-head run is the one whose entries will stay pending
    /// longest, making it the cheapest to demote: the soonest-firing
    /// runs keep the fast merge path.
    fn spill_latest_run(&mut self)
    where
        E: Clone,
    {
        let mut latest = (0usize, (f64::NEG_INFINITY, 0u64));
        for (i, r) in self.runs.iter().enumerate() {
            let key = r.head().expect("staged runs always have pending entries");
            if key > latest.1 {
                latest = (i, key);
            }
        }
        let mut spill = self.runs.swap_remove(latest.0);
        let Fel::Calendar(c) = &mut self.fel else {
            unreachable!("runs stage only on the calendar backend")
        };
        for i in spill.cursor..spill.times.len() {
            let ev = spill.events.pop().expect("events track pending entries");
            c.schedule(
                SimTime::from_secs(spill.times[i]),
                spill.first_id + i as u64,
                ev,
            );
        }
        if self.spare_runs.len() < 4 {
            spill.times.clear();
            self.spare_runs.push(spill);
        }
    }

    /// `((time, id), index)` of the earliest pending run entry.
    #[inline]
    fn earliest_run(&self) -> Option<((f64, u64), usize)> {
        let mut best: Option<((f64, u64), usize)> = None;
        for (i, r) in self.runs.iter().enumerate() {
            if let Some(key) = r.head() {
                if best.is_none_or(|(bk, _)| key < bk) {
                    best = Some((key, i));
                }
            }
        }
        best
    }

    /// Removes the head entry of run `ri`, retiring the run's buffers
    /// into the spare pool when it drains.
    fn pop_run(&mut self, ri: usize) -> (SimTime, E) {
        let run = &mut self.runs[ri];
        let t = run.times[run.cursor];
        run.cursor += 1;
        let ev = run.events.pop().expect("run events track pending entries");
        if run.cursor == run.times.len() {
            let mut done = self.runs.swap_remove(ri);
            if self.spare_runs.len() < 4 {
                done.times.clear();
                self.spare_runs.push(done);
            }
        }
        (SimTime::from_secs(t), ev)
    }

    /// Cancels a pending event. Returns whether the backend withdrew an
    /// entry.
    ///
    /// The handle must be *live* (scheduled and neither popped nor
    /// cancelled). The calendar backend verifies this and returns
    /// `false` for a dead handle; the heap backend cancels lazily and
    /// cannot distinguish a dead handle, so cancelling one corrupts its
    /// pending count — callers must track liveness (as the cloud model
    /// does by storing handles in `Option`s).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        // Bulk-run entries return no handles, so only a forged handle
        // can carry the late bit.
        debug_assert!(
            handle.id & LATE == 0,
            "cancel of a bulk-run entry (runs return no handles)"
        );
        debug_assert!(handle.id < self.next_id, "foreign handle");
        let removed = match &mut self.fel {
            Fel::Heap(h) => h.cancel(handle),
            Fel::Calendar(c) => c.cancel(handle),
        };
        if removed {
            self.live -= 1;
        }
        removed
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let run_head = if self.runs.is_empty() {
            None
        } else {
            self.earliest_run()
        };
        let take_run = match (&mut self.fel, run_head) {
            (Fel::Calendar(c), Some((rk, _))) => !c.peek_key().is_some_and(|ck| ck < rk),
            (_, Some(_)) => true, // heap never stages runs
            (_, None) => false,
        };
        let popped = if take_run {
            let (_, ri) = run_head.expect("take_run implies a run head");
            Some(self.pop_run(ri))
        } else {
            match &mut self.fel {
                Fel::Heap(h) => h.pop(),
                Fel::Calendar(c) => c.pop(),
            }
        };
        if popped.is_some() {
            self.live -= 1;
        }
        popped
    }

    /// Timestamp of the earliest pending event.
    ///
    /// Takes `&mut self` because both backends tidy internal state while
    /// peeking (the heap drops surfaced cancelled entries; the calendar
    /// advances its cursor and caches the found entry for the next pop).
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let fel_t = match &mut self.fel {
            Fel::Heap(h) => h.peek_time(),
            Fel::Calendar(c) => c.peek_time(),
        };
        if self.runs.is_empty() {
            return fel_t;
        }
        let run_t = self.earliest_run().map(|((t, _), _)| SimTime::from_secs(t));
        match (fel_t, run_t) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending (non-cancelled) events.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        match &mut self.fel {
            Fel::Heap(h) => h.clear(),
            Fel::Calendar(c) => c.clear(),
        }
        while let Some(mut run) = self.runs.pop() {
            run.times.clear();
            run.events.clear();
            if self.spare_runs.len() < 4 {
                self.spare_runs.push(run);
            }
        }
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    const BACKENDS: [FelBackend; 2] = [FelBackend::Calendar, FelBackend::BinaryHeap];

    #[test]
    fn pops_in_time_order() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(t(3.0), "c");
            q.schedule(t(1.0), "a");
            q.schedule(t(2.0), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{backend:?}");
        }
    }

    #[test]
    fn equal_times_are_fifo() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            for i in 0..100 {
                q.schedule(t(5.0), i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{backend:?}");
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(t(10.0), 10);
            q.schedule(t(1.0), 1);
            assert_eq!(q.pop(), Some((t(1.0), 1)));
            q.schedule(t(5.0), 5);
            assert_eq!(q.peek_time(), Some(t(5.0)));
            assert_eq!(q.pop(), Some((t(5.0), 5)));
            assert_eq!(q.pop(), Some((t(10.0), 10)));
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn len_and_clear() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            assert!(q.is_empty());
            q.schedule(t(1.0), ());
            q.schedule(t(2.0), ());
            assert_eq!(q.len(), 2);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn cancel_withdraws_an_event() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(t(1.0), "keep-1");
            let h = q.schedule(t(2.0), "drop");
            q.schedule(t(3.0), "keep-3");
            assert_eq!(h.time(), t(2.0));
            assert!(q.cancel(h));
            assert_eq!(q.len(), 2);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["keep-1", "keep-3"], "{backend:?}");
        }
    }

    #[test]
    fn cancel_everything_leaves_an_empty_queue() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let handles: Vec<_> = (0..50).map(|i| q.schedule(t(i as f64), i)).collect();
            for h in handles {
                assert!(q.cancel(h));
            }
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
            assert_eq!(q.peek_time(), None);
        }
    }

    #[test]
    fn calendar_detects_dead_handles() {
        let mut q = EventQueue::with_backend(FelBackend::Calendar);
        let h = q.schedule(t(1.0), ());
        assert_eq!(q.pop(), Some((t(1.0), ())));
        assert!(!q.cancel(h), "popped handle must not cancel");
        let h2 = q.schedule(t(2.0), ());
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2), "double cancel must fail");
    }

    #[test]
    fn peek_after_cancel_skips_the_cancelled_head() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let h = q.schedule(t(1.0), "head");
            q.schedule(t(2.0), "next");
            q.cancel(h);
            assert_eq!(q.peek_time(), Some(t(2.0)), "{backend:?}");
            assert_eq!(q.pop(), Some((t(2.0), "next")));
        }
    }

    #[test]
    fn calendar_survives_resize_cycles() {
        let mut q = EventQueue::with_backend(FelBackend::Calendar);
        // Grow far past the initial 16 buckets, then drain to shrink.
        let n = 10_000;
        for i in 0..n {
            q.schedule(t((i % 97) as f64 * 0.5 + (i / 97) as f64 * 60.0), i);
        }
        assert_eq!(q.len(), n as usize);
        let mut last = t(-1.0);
        let mut count = 0;
        while let Some((time, _)) = q.pop() {
            assert!(time >= last, "out of order: {time} after {last}");
            last = time;
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn calendar_handles_sparse_far_future_events() {
        let mut q = EventQueue::with_backend(FelBackend::Calendar);
        // Dense burst now + sparse timers 10⁶ seconds out.
        for i in 0..1000 {
            q.schedule(t(i as f64 * 0.001), i);
        }
        for i in 0..10 {
            q.schedule(t(1.0e6 + i as f64 * 1.0e4), 10_000 + i);
        }
        let mut last = t(-1.0);
        while let Some((time, _)) = q.pop() {
            assert!(time >= last);
            last = time;
        }
        assert_eq!(last, t(1.0e6 + 9.0e4));
    }

    #[test]
    fn schedule_run_matches_per_entry_scheduling() {
        // The calendar stages runs; the heap schedules them entry by
        // entry. Identical pop sequences prove the merge assigns the
        // same (time, id) order as the per-entry reference.
        let mut heap = EventQueue::with_backend(FelBackend::BinaryHeap);
        let mut cal = EventQueue::with_backend(FelBackend::Calendar);
        let run: Vec<SimTime> = (0..64).map(|i| t(1.0 + i as f64 * 0.25)).collect();
        for q in [&mut heap, &mut cal] {
            q.schedule(t(0.5), "pre");
            q.schedule_run(&run, "run");
            q.schedule(t(3.0), "mid");
            q.schedule(t(100.0), "post");
        }
        assert_eq!(heap.len(), cal.len());
        loop {
            let a = heap.pop();
            assert_eq!(a, cal.pop());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn run_ties_pop_after_singles() {
        // At one instant, bulk-released entries pop after every single
        // event on both backends — including one scheduled after the
        // run was released.
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let times: Vec<SimTime> = vec![t(5.0); 16];
            q.schedule(t(5.0), "before");
            q.schedule_run(&times, "run");
            q.schedule(t(5.0), "after");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            let mut expected = vec!["before", "after"];
            expected.extend(["run"; 16]);
            assert_eq!(order, expected, "{backend:?}");
        }
    }

    /// Releases the bulk runs `runs` (run `r` carries payload
    /// `100 + r`), with single events `0, 1, …` scheduled at t = 5
    /// before, between and after them. Returns the `(time, payload)`
    /// pop order and the staged-run depth before the first pop.
    fn late_rule_order(backend: FelBackend, runs: &[Vec<f64>]) -> (Vec<(f64, u32)>, usize) {
        let mut q = EventQueue::with_backend(backend);
        q.schedule(t(5.0), 0);
        for (r, times) in runs.iter().enumerate() {
            let times: Vec<SimTime> = times.iter().map(|&s| t(s)).collect();
            q.schedule_run(&times, 100 + r as u32);
            q.schedule(t(5.0), r as u32 + 1);
        }
        let staged = q.runs.len();
        let order = std::iter::from_fn(|| q.pop())
            .map(|(time, tag)| (time.as_secs(), tag))
            .collect();
        (order, staged)
    }

    /// The expected order: every single at t = 5 first, in FIFO order,
    /// then the run entries at t = 5 in release order, then later
    /// entries by time (release order again among equal times).
    fn assert_late_order(order: &[(f64, u32)], runs: &[Vec<f64>], what: &str) {
        let mut expected: Vec<(f64, u32)> = (0..=runs.len() as u32).map(|s| (5.0, s)).collect();
        let mut bulk: Vec<(f64, u32)> = runs
            .iter()
            .enumerate()
            .flat_map(|(r, times)| times.iter().map(move |&s| (s, 100 + r as u32)))
            .collect();
        bulk.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable
        expected.extend(bulk);
        assert_eq!(order, expected, "{what}");
    }

    #[test]
    fn late_rule_holds_on_the_staged_route() {
        let runs = vec![vec![5.0; 12], [vec![5.0; 4], vec![6.0; 8]].concat()];
        for backend in BACKENDS {
            let (order, staged) = late_rule_order(backend, &runs);
            if backend == FelBackend::Calendar {
                assert_eq!(staged, 2, "both runs must stage");
            }
            assert_late_order(&order, &runs, &format!("staged, {backend:?}"));
        }
    }

    #[test]
    fn late_rule_holds_on_the_fallback_route() {
        // A short run (< MIN_RUN) and a non-monotone one both take the
        // per-entry path, which must assign late ids just the same.
        let short = vec![5.0; MIN_RUN - 1];
        let non_monotone = vec![6.0, 5.0, 5.0, 7.0, 5.0, 6.5, 5.0, 5.0, 5.0];
        let runs = vec![short, non_monotone];
        for backend in BACKENDS {
            let (order, staged) = late_rule_order(backend, &runs);
            assert_eq!(staged, 0, "{backend:?}: nothing may stage");
            assert_late_order(&order, &runs, &format!("fallback, {backend:?}"));
        }
    }

    #[test]
    fn late_rule_holds_on_the_spill_route() {
        // More runs than the stage holds: the overflow spills into the
        // calendar entry by entry, keeping its late ids.
        let runs: Vec<Vec<f64>> = (0..MAX_STAGED_RUNS + 3)
            .map(|r| {
                let mut times = vec![5.0; MIN_RUN];
                times.push(5.0 + r as f64);
                times
            })
            .collect();
        for backend in BACKENDS {
            let (order, staged) = late_rule_order(backend, &runs);
            if backend == FelBackend::Calendar {
                assert_eq!(staged, MAX_STAGED_RUNS, "the stage must have spilled");
            }
            assert_late_order(&order, &runs, &format!("spill, {backend:?}"));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cancel of a bulk-run entry")]
    fn cancel_rejects_late_ids() {
        let mut q = EventQueue::with_backend(FelBackend::Calendar);
        q.schedule_run(&[t(1.0); MIN_RUN], ());
        q.cancel(EventHandle {
            id: LATE,
            time: t(1.0),
        });
    }

    #[test]
    fn non_monotone_run_falls_back_correctly() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let times: Vec<SimTime> = (0..32).map(|i| t(((i * 13) % 32) as f64)).collect();
            assert_eq!(q.schedule_run(&times, 7u32), 32);
            assert_eq!(q.len(), 32);
            let mut last = t(-1.0);
            let mut n = 0;
            while let Some((time, ev)) = q.pop() {
                assert!(time >= last, "{backend:?}");
                assert_eq!(ev, 7);
                last = time;
                n += 1;
            }
            assert_eq!(n, 32, "{backend:?}");
        }
    }

    #[test]
    fn interleaved_runs_singles_and_cancels_agree_across_backends() {
        let mut heap = EventQueue::with_backend(FelBackend::BinaryHeap);
        let mut cal = EventQueue::with_backend(FelBackend::Calendar);
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut clock = 0.0;
        for i in 0..2_000_u64 {
            match next() % 5 {
                0 | 1 => {
                    let dt = (next() % 1000) as f64 / 100.0;
                    heap.schedule(t(clock + dt), i);
                    cal.schedule(t(clock + dt), i);
                }
                2 => {
                    let start = clock + (next() % 100) as f64 / 10.0;
                    let n = 8 + (next() % 40) as usize;
                    let times: Vec<SimTime> = (0..n)
                        .map(|j| t(start + j as f64 * ((next() % 50) as f64 / 500.0)))
                        .collect();
                    // Cumulative gaps would be monotone; these aren't
                    // necessarily (each term re-rolls), so sort.
                    let mut times = times;
                    times.sort_unstable();
                    heap.schedule_run(&times, 1_000_000 + i);
                    cal.schedule_run(&times, 1_000_000 + i);
                }
                3 => {
                    let a = heap.pop();
                    assert_eq!(a, cal.pop());
                    if let Some((time, _)) = a {
                        clock = time.as_secs();
                    }
                }
                _ => {
                    assert_eq!(heap.peek_time(), cal.peek_time());
                }
            }
        }
        loop {
            let a = heap.pop();
            assert_eq!(a, cal.pop());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn clear_drops_pending_runs() {
        let mut q = EventQueue::with_backend(FelBackend::Calendar);
        let times: Vec<SimTime> = (0..32).map(|i| t(i as f64)).collect();
        q.schedule_run(&times, ());
        q.schedule(t(50.0), ());
        assert_eq!(q.len(), 33);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        // The queue stays usable (and the run buffers recycled).
        q.schedule_run(&times, ());
        assert_eq!(q.len(), 32);
        assert_eq!(q.pop(), Some((t(0.0), ())));
    }

    #[test]
    fn deep_run_backlog_spills_without_reordering() {
        // Stage far more runs than MAX_STAGED_RUNS before the first
        // pop: the overflow spills into the calendar entry by entry,
        // and the pop order must still match the heap reference (which
        // never stages) exactly — spilling preserves insertion ids.
        let mut heap = EventQueue::with_backend(FelBackend::BinaryHeap);
        let mut cal = EventQueue::with_backend(FelBackend::Calendar);
        for i in 0..(6 * MAX_STAGED_RUNS as u64) {
            let base = ((i * 37) % 100) as f64;
            let times: Vec<SimTime> = (0..16).map(|j| t(base + j as f64 * 0.25)).collect();
            heap.schedule_run(&times, i);
            cal.schedule_run(&times, i);
        }
        loop {
            let a = heap.pop();
            assert_eq!(a, cal.pop());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn backends_agree_under_interleaving() {
        let mut heap = EventQueue::with_backend(FelBackend::BinaryHeap);
        let mut cal = EventQueue::with_backend(FelBackend::Calendar);
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut clock = 0.0;
        let mut log = Vec::new();
        for i in 0..5_000_u64 {
            match next() % 4 {
                0 | 1 => {
                    let dt = (next() % 1000) as f64 / 250.0;
                    heap.schedule(t(clock + dt), i);
                    cal.schedule(t(clock + dt), i);
                }
                2 => {
                    let a = heap.pop();
                    assert_eq!(a, cal.pop());
                    if let Some((time, ev)) = a {
                        clock = time.as_secs();
                        log.push((time, ev));
                    }
                }
                _ => {
                    assert_eq!(heap.peek_time(), cal.peek_time());
                }
            }
        }
        loop {
            let a = heap.pop();
            assert_eq!(a, cal.pop());
            match a {
                Some(e) => log.push(e),
                None => break,
            }
        }
        assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}

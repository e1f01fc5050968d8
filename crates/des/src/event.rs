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
//! * **4-ary heap** (default) — an implicit min-heap with four children
//!   per node, keyed by `(time, id)` packed into two `u64`s, plus a
//!   stage of bulk-released runs merged into its pop order. The
//!   simulator keeps 30–60 single events pending, a depth at which the
//!   shallow, cache-friendly heap beats bucketed structures.
//! * **Binary heap** — `std`'s `BinaryHeap`, entry by entry with lazy
//!   cancellation and no run stage: the reference the A/B determinism
//!   tests compare against.
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
//! released. On the 4-ary heap the run is staged as a sorted array of
//! keys with one copy of the payload, and its head is merged into the
//! pop order by `(time, id)`, so an arrival burst costs one append and
//! O(1) per pop; the binary heap schedules runs entry by entry.
//!
//! [`EventQueue::pop_until`] pops the earliest event only if it fires
//! at or before a bound, comparing the heap top and the earliest run
//! head once; [`EventQueue::pop`] is the same merge without a bound.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Identifies one scheduled (and not yet delivered) event.
///
/// A handle is *live* from [`EventQueue::schedule`] until the event is
/// popped or cancelled; cancelling a handle that is no longer live
/// returns `false` on the 4-ary heap and is a caller contract violation
/// on the binary heap (see [`EventQueue::cancel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    id: u64,
    /// The entry's slot on the 4-ary heap (unused on the binary heap).
    slot: u32,
}

/// Which data structure backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FelBackend {
    /// Implicit 4-ary min-heap with staged bulk runs.
    #[default]
    QuadHeap,
    /// `std` binary heap, entry by entry; the reference implementation.
    BinaryHeap,
}

impl FelBackend {
    /// Every backend, default first.
    pub const ALL: [FelBackend; 2] = [FelBackend::QuadHeap, FelBackend::BinaryHeap];

    /// The backend's command-line name.
    pub fn label(self) -> &'static str {
        match self {
            FelBackend::QuadHeap => "quad_heap",
            FelBackend::BinaryHeap => "binary_heap",
        }
    }
}

/// Set in the insertion id of every entry released through
/// [`EventQueue::schedule_run`], on every route (staged, per-entry
/// fallback, spill). Ids order ties, so a bulk-released entry pops after
/// every [`EventQueue::schedule`]d entry at the same instant — even one
/// scheduled later — and bulk entries keep release order among
/// themselves. A simulator that releases arrivals ahead of time thus
/// sees the same same-instant order as one that releases each arrival
/// batch at its own instant. Handles never carry the bit.
const LATE: u64 = 1 << 63;

/// Maps a time onto a `u64` whose unsigned order is the time's numeric
/// order, so a `(time, id)` key compares as two integers. `-0.0` is
/// folded onto `+0.0` first: the two are equal [`SimTime`]s, so they
/// must share a key and tie-break by id.
#[inline]
fn time_key(t: SimTime) -> u64 {
    const SIGN: u64 = 1 << 63;
    let bits = (t.as_secs() + 0.0).to_bits();
    if bits & SIGN == 0 {
        bits | SIGN
    } else {
        !bits
    }
}

/// Inverse of [`time_key`].
#[inline]
fn key_time(key: u64) -> SimTime {
    const SIGN: u64 = 1 << 63;
    let bits = if key & SIGN != 0 { key & !SIGN } else { !key };
    SimTime::from_secs(f64::from_bits(bits))
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

    /// Drops cancelled entries off the top, then returns the earliest
    /// live time.
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

    /// Pops the earliest live entry if its time key is at most `limit`.
    fn pop_within(&mut self, limit: u64) -> Option<(SimTime, E)> {
        if time_key(self.peek_time()?) > limit {
            return None;
        }
        let e = self.heap.pop().expect("peeked");
        Some((e.time, e.event))
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
// 4-ary heap backend
// ---------------------------------------------------------------------

/// Children per node. Four halves the depth of a binary heap, and the
/// four child keys of a node share one or two cache lines.
const ARITY: usize = 4;

/// An entry's `(time, id)` key as one integer: the [`time_key`] in the
/// high half, the insertion id in the low half, so one `u128` compare
/// orders by time, then id.
#[inline]
fn entry_key(time: u64, id: u64) -> u128 {
    (u128::from(time) << 64) | u128::from(id)
}

/// The [`time_key`] half of an [`entry_key`].
#[inline]
fn key_time_bits(key: u128) -> u64 {
    (key >> 64) as u64
}

struct Node<E> {
    /// [`entry_key`] of the firing time and insertion id.
    key: u128,
    /// The entry's index into [`QuadHeap::pos`].
    slot: u32,
    event: E,
}

/// An implicit 4-ary min-heap on `(time, id)`: node `i`'s children are
/// `4i + 1 ..= 4i + 4`.
///
/// A pop moves the last entry to the root and sinks it *bottom-up*: the
/// hole walks down to a leaf along the smallest children, picked without
/// branches, and the entry then rises from there. The entry came from
/// the bottom, so it rarely rises far, and the descent pays no
/// unpredictable "stop here?" branch per level.
///
/// Cancellation is eager and O(log n): every entry holds a slot whose
/// `pos` is kept at the entry's heap index as it moves, and a handle
/// names its slot. A slot is recycled once its entry leaves, so a
/// handle is live only while the node at its slot's position still
/// carries the handle's id (ids are never reused).
struct QuadHeap<E> {
    nodes: Vec<Node<E>>,
    /// Heap index of the entry in each slot (stale for free slots).
    pos: Vec<u32>,
    /// Slots whose entries have left the heap.
    free: Vec<u32>,
}

impl<E> QuadHeap<E> {
    fn with_capacity(cap: usize) -> Self {
        QuadHeap {
            nodes: Vec::with_capacity(cap),
            pos: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<u128> {
        self.nodes.first().map(|n| n.key)
    }

    /// Inserts an entry; returns its slot.
    #[inline]
    fn push(&mut self, key: u128, event: E) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.pos.push(0);
            (self.pos.len() - 1) as u32
        });
        self.nodes.push(Node { key, slot, event });
        self.sift_up(self.nodes.len() - 1);
        slot
    }

    #[inline]
    fn pop(&mut self) -> Option<Node<E>> {
        let last = self.nodes.pop()?;
        let top = if self.nodes.is_empty() {
            last
        } else {
            let top = std::mem::replace(&mut self.nodes[0], last);
            self.sift_down(0);
            top
        };
        self.free.push(top.slot);
        Some(top)
    }

    /// Removes the entry a handle names, if it is still pending.
    fn remove(&mut self, slot: u32, id: u64) -> bool {
        let Some(&i) = self.pos.get(slot as usize) else {
            return false;
        };
        let i = i as usize;
        if self.nodes.get(i).is_none_or(|n| n.key as u64 != id) {
            return false;
        }
        let last = self.nodes.pop().expect("found an entry");
        if i < self.nodes.len() {
            let removed = std::mem::replace(&mut self.nodes[i], last);
            // The moved entry may belong above or below the hole.
            if self.sift_up(i) == i {
                self.sift_down(i);
            }
            self.free.push(removed.slot);
        } else {
            self.free.push(last.slot);
        }
        true
    }

    /// Records that node `i` now sits at index `i`.
    #[inline]
    fn place(&mut self, i: usize) {
        self.pos[self.nodes[i].slot as usize] = i as u32;
    }

    /// Moves node `i` up to its place; returns where it settled.
    #[inline]
    fn sift_up(&mut self, mut i: usize) -> usize {
        let key = self.nodes[i].key;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.nodes[parent].key <= key {
                break;
            }
            self.nodes.swap(i, parent);
            self.place(i);
            i = parent;
        }
        self.place(i);
        i
    }

    /// Moves node `i` (no smaller than its parent) down to its place,
    /// bottom-up: down to a leaf along the smallest children, then up.
    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.nodes.len();
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let best = self.min_child(first, n);
            self.nodes.swap(i, best);
            self.place(i);
            i = best;
        }
        self.sift_up(i);
    }

    /// Index of the smallest of the children starting at `first`.
    #[inline]
    fn min_child(&self, first: usize, n: usize) -> usize {
        if let Some([a, b, c, d]) = self.nodes.get(first..first + ARITY) {
            // A full family: a two-round tournament the compiler can
            // lower to conditional moves.
            let (lo, lo_key) = if b.key < a.key {
                (first + 1, b.key)
            } else {
                (first, a.key)
            };
            let (hi, hi_key) = if d.key < c.key {
                (first + 3, d.key)
            } else {
                (first + 2, c.key)
            };
            if hi_key < lo_key {
                hi
            } else {
                lo
            }
        } else {
            (first..n)
                .min_by_key(|&c| self.nodes[c].key)
                .expect("a node with children")
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.pos.clear();
        self.free.clear();
    }
}

/// Below this length a bulk run is scheduled entry by entry: the staging
/// overhead (buffer swap, merge checks on every subsequent pop) only
/// pays off once a run amortizes it across many entries.
const MIN_RUN: usize = 8;

/// Pop scans every staged run for the earliest head, so the stage is
/// kept shallow: once `schedule_run` would exceed this depth, the
/// staged run with the latest head is spilled into the heap entry by
/// entry (insertion ids preserved, so pop order is unaffected). Bounds
/// the per-pop scan no matter how many runs a caller stages before
/// draining; the simulator's cadence never exceeds one or two.
const MAX_STAGED_RUNS: usize = 8;

/// A bulk-scheduled monotone run: `times[cursor..]` are the pending
/// [`time_key`]s (non-decreasing), and entry `i` carries the late
/// insertion id `first_id + i` — the same ids the per-entry fallback
/// would have assigned, so merging runs into the pop order by
/// `(time, id)` reproduces the per-entry schedule exactly (ties
/// included).
///
/// Every entry carries the same payload, so the run stores it once and
/// hands out clones, moving the original out with the last entry.
/// `clone` is captured where `E: Clone` is known, so popping needs no
/// bound on `E`.
struct RunStage<E> {
    times: Vec<u64>,
    first_id: u64,
    cursor: usize,
    event: E,
    clone: fn(&E) -> E,
}

impl<E> RunStage<E> {
    /// [`entry_key`] of the next pending entry (a staged run always has
    /// one).
    #[inline]
    fn head(&self) -> u128 {
        entry_key(self.times[self.cursor], self.first_id + self.cursor as u64)
    }
}

/// Run-key buffers kept for reuse, so steady-state bulk scheduling
/// allocates nothing once warm.
const SPARE_RUNS: usize = 4;

// ---------------------------------------------------------------------
// Public queue
// ---------------------------------------------------------------------

enum Fel<E> {
    Quad(QuadHeap<E>),
    Binary(HeapFel<E>),
}

/// A future-event list with deterministic tie-breaking (FIFO among
/// single events, bulk-released entries last) and event cancellation.
pub struct EventQueue<E> {
    fel: Fel<E>,
    next_id: u64,
    live: usize,
    /// Staged bulk runs ([`Self::schedule_run`]), 4-ary heap only —
    /// the binary heap schedules runs entry by entry so the A/B
    /// determinism tests exercise the merge against a run-free
    /// reference. Almost always zero or one run deep.
    runs: Vec<RunStage<E>>,
    /// Retired run-key buffers kept for reuse.
    spare_times: Vec<Vec<u64>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default (4-ary heap) backend.
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
            FelBackend::QuadHeap => Fel::Quad(QuadHeap::with_capacity(cap)),
            FelBackend::BinaryHeap => Fel::Binary(HeapFel::with_capacity(cap)),
        };
        EventQueue {
            fel,
            next_id: 0,
            live: 0,
            runs: Vec::new(),
            spare_times: Vec::new(),
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> FelBackend {
        match self.fel {
            Fel::Quad(_) => FelBackend::QuadHeap,
            Fel::Binary(_) => FelBackend::BinaryHeap,
        }
    }

    /// Schedules `event` to fire at absolute time `time`; the returned
    /// handle can cancel it while it is still pending.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventHandle {
        let id = self.next_id;
        let slot = self.insert(time, id, event);
        EventHandle { id, slot }
    }

    /// Inserts one entry under `id` into the backend and advances the
    /// id counter; returns the entry's slot (0 on the binary heap).
    #[inline]
    fn insert(&mut self, time: SimTime, id: u64, event: E) -> u32 {
        self.next_id += 1;
        self.live += 1;
        match &mut self.fel {
            Fel::Quad(h) => h.push(entry_key(time_key(time), id), event),
            Fel::Binary(h) => {
                h.schedule(time, id, event);
                0
            }
        }
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
    /// shorter than `MIN_RUN` and the binary heap (the reference
    /// implementation) also take the per-entry path.
    ///
    /// The stage is at most `MAX_STAGED_RUNS` deep: staging beyond
    /// that spills the latest-firing staged run into the heap (ids
    /// preserved), so pathological stage-everything-then-drain callers
    /// degrade to per-entry cost instead of an O(depth) scan on every
    /// pop.
    ///
    /// Run entries cannot be cancelled: no handles are returned.
    pub fn schedule_run(&mut self, times: &[SimTime], event: E) -> usize
    where
        E: Clone,
    {
        let monotone = times.windows(2).all(|w| w[0] <= w[1]);
        if times.len() < MIN_RUN || !monotone || matches!(self.fel, Fel::Binary(_)) {
            for &t in times {
                self.insert(t, LATE | self.next_id, event.clone());
            }
            return times.len();
        }
        if self.runs.len() >= MAX_STAGED_RUNS {
            self.spill_latest_run();
        }
        let mut keys = self.spare_times.pop().unwrap_or_default();
        keys.extend(times.iter().map(|&t| time_key(t)));
        self.runs.push(RunStage {
            times: keys,
            first_id: LATE | self.next_id,
            cursor: 0,
            event,
            clone: E::clone,
        });
        self.next_id += times.len() as u64;
        self.live += times.len();
        times.len()
    }

    /// Spills the staged run with the *latest* head into the heap entry
    /// by entry, preserving every entry's insertion id — so pop order
    /// is untouched, the run merely loses its O(1) staging.
    ///
    /// The latest-head run is the one whose entries will stay pending
    /// longest, making it the cheapest to demote: the soonest-firing
    /// runs keep the fast merge path.
    fn spill_latest_run(&mut self) {
        let latest = (0..self.runs.len())
            .max_by_key(|&i| self.runs[i].head())
            .expect("spilling needs a staged run");
        let run = self.runs.swap_remove(latest);
        let Fel::Quad(heap) = &mut self.fel else {
            unreachable!("runs stage only on the 4-ary heap")
        };
        for i in run.cursor..run.times.len() {
            heap.push(
                entry_key(run.times[i], run.first_id + i as u64),
                (run.clone)(&run.event),
            );
        }
        self.recycle(run.times);
    }

    fn recycle(&mut self, mut times: Vec<u64>) {
        if self.spare_times.len() < SPARE_RUNS {
            times.clear();
            self.spare_times.push(times);
        }
    }

    /// Removes the head entry of run `ri`, retiring the run when it
    /// drains.
    #[inline]
    fn pop_run(&mut self, ri: usize) -> (SimTime, E) {
        let run = &mut self.runs[ri];
        let time = key_time(run.times[run.cursor]);
        run.cursor += 1;
        if run.cursor < run.times.len() {
            return (time, (run.clone)(&run.event));
        }
        let done = self.runs.swap_remove(ri);
        self.recycle(done.times);
        (time, done.event)
    }

    /// Cancels a pending event. Returns whether the backend withdrew an
    /// entry.
    ///
    /// The handle must be *live* (scheduled and neither popped nor
    /// cancelled). The 4-ary heap verifies this and returns `false` for
    /// a dead handle; the binary heap cancels lazily and cannot
    /// distinguish a dead handle, so cancelling one corrupts its
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
            Fel::Quad(h) => h.remove(handle.slot, handle.id),
            Fel::Binary(h) => h.cancel(handle),
        };
        if removed {
            self.live -= 1;
        }
        removed
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_within(u64::MAX)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `end`; leaves the queue untouched otherwise.
    #[inline]
    pub fn pop_until(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        self.pop_within(time_key(end))
    }

    /// Removes and returns the earliest event if it fires strictly
    /// before `bound`.
    #[inline]
    pub(crate) fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        self.pop_within(time_key(bound).checked_sub(1)?)
    }

    /// The one merge behind every pop: the earlier of the heap top and
    /// the earliest staged-run head, if its time key is at most
    /// `limit`.
    #[inline]
    fn pop_within(&mut self, limit: u64) -> Option<(SimTime, E)> {
        let popped = match &mut self.fel {
            Fel::Quad(heap) => {
                let top = heap.peek_key();
                let mut run: Option<(u128, usize)> = None;
                for (i, r) in self.runs.iter().enumerate() {
                    let key = r.head();
                    if run.is_none_or(|(best, _)| key < best) {
                        run = Some((key, i));
                    }
                }
                match (top, run) {
                    (top, Some((key, ri))) if top.is_none_or(|t| key < t) => {
                        if key_time_bits(key) > limit {
                            return None;
                        }
                        self.pop_run(ri)
                    }
                    (Some(key), _) => {
                        if key_time_bits(key) > limit {
                            return None;
                        }
                        let node = heap.pop().expect("peeked");
                        (key_time(key_time_bits(node.key)), node.event)
                    }
                    (None, _) => return None,
                }
            }
            Fel::Binary(h) => h.pop_within(limit)?,
        };
        self.live -= 1;
        Some(popped)
    }

    /// Timestamp of the earliest pending event.
    ///
    /// Takes `&mut self` because the binary heap drops surfaced
    /// cancelled entries while peeking.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let fel = match &mut self.fel {
            Fel::Quad(h) => h.peek_key().map(|k| key_time(key_time_bits(k))),
            Fel::Binary(h) => h.peek_time(),
        };
        let run = self.runs.iter().map(|r| key_time(r.times[r.cursor])).min();
        match (fel, run) {
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
            Fel::Quad(h) => h.clear(),
            Fel::Binary(h) => h.clear(),
        }
        while let Some(run) = self.runs.pop() {
            self.recycle(run.times);
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

    const BACKENDS: [FelBackend; 2] = FelBackend::ALL;

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
    fn signed_zeros_share_a_key_and_stay_fifo() {
        // The packed key folds -0.0 onto +0.0: equal SimTimes, so the
        // tie goes to the earlier insertion, as on the reference heap.
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(t(0.0), 0);
            q.schedule(t(-0.0), 1);
            q.schedule(t(0.0), 2);
            q.schedule(t(-0.0), 3);
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![0, 1, 2, 3], "{backend:?}");
        }
    }

    #[test]
    fn time_keys_order_like_times() {
        let times = [
            -1e300, -2.5, -1e-300, 0.0, 1e-300, 0.25, 1.0, 86_400.0, 1e300,
        ];
        for w in times.windows(2) {
            assert!(
                time_key(t(w[0])) < time_key(t(w[1])),
                "{} !< {}",
                w[0],
                w[1]
            );
        }
        for &s in &times {
            assert_eq!(key_time(time_key(t(s))).as_secs().to_bits(), s.to_bits());
        }
        assert_eq!(time_key(t(-0.0)), time_key(t(0.0)));
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
    fn pop_until_respects_the_bound() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(t(2.0), "single");
            q.schedule_run(&[t(3.0); MIN_RUN], "run");
            // Just before the first event: nothing moves.
            assert_eq!(q.pop_until(t(1.999_999)), None, "{backend:?}");
            assert_eq!(q.len(), MIN_RUN + 1);
            // At the bound: the event is due.
            assert_eq!(q.pop_until(t(2.0)), Some((t(2.0), "single")));
            assert_eq!(q.pop_until(t(2.0)), None);
            // Strictly before the run's instant: the run waits.
            assert_eq!(q.pop_before(t(3.0)), None);
            // Past the bound: the run drains in order, then nothing.
            for _ in 0..MIN_RUN {
                assert_eq!(q.pop_until(t(100.0)), Some((t(3.0), "run")));
            }
            assert_eq!(q.pop_until(t(100.0)), None);
            assert!(q.is_empty());
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
    fn quad_heap_detects_dead_handles() {
        let mut q = EventQueue::with_backend(FelBackend::QuadHeap);
        let h = q.schedule(t(1.0), ());
        assert_eq!(q.pop(), Some((t(1.0), ())));
        assert!(!q.cancel(h), "popped handle must not cancel");
        let h2 = q.schedule(t(2.0), ());
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2), "double cancel must fail");
        assert!(q.is_empty());
    }

    /// Schedules 0..40 at scrambled times, cancels the entry `pick`
    /// selects from the heap's own layout, and checks the rest drain in
    /// order.
    fn cancel_at(pick: impl Fn(&QuadHeap<u32>) -> usize) {
        let mut q = EventQueue::with_backend(FelBackend::QuadHeap);
        let handles: Vec<_> = (0..40u32)
            .map(|i| q.schedule(t(((i * 17) % 40) as f64), i))
            .collect();
        let Fel::Quad(heap) = &q.fel else {
            unreachable!()
        };
        let victim = heap.nodes[pick(heap)].event;
        assert!(q.cancel(handles[victim as usize]));
        assert!(!q.cancel(handles[victim as usize]));
        let mut expected: Vec<u32> = (0..40).filter(|&i| i != victim).collect();
        expected.sort_by_key(|&i| (i * 17) % 40);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, expected, "after cancelling {victim}");
    }

    #[test]
    fn cancel_the_root_an_interior_entry_and_the_last_entry() {
        cancel_at(|_| 0);
        cancel_at(|_| 2);
        cancel_at(|h| h.nodes.len() / 2);
        cancel_at(|h| h.nodes.len() - 1);
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
    fn heap_survives_growth_and_drain() {
        let mut q = EventQueue::with_backend(FelBackend::QuadHeap);
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
    fn schedule_run_matches_per_entry_scheduling() {
        // The 4-ary heap stages runs; the binary heap schedules them
        // entry by entry. Identical pop sequences prove the merge
        // assigns the same (time, id) order as the per-entry reference.
        let mut binary = EventQueue::with_backend(FelBackend::BinaryHeap);
        let mut quad = EventQueue::with_backend(FelBackend::QuadHeap);
        let run: Vec<SimTime> = (0..64).map(|i| t(1.0 + i as f64 * 0.25)).collect();
        for q in [&mut binary, &mut quad] {
            q.schedule(t(0.5), "pre");
            q.schedule_run(&run, "run");
            q.schedule(t(3.0), "mid");
            q.schedule(t(100.0), "post");
        }
        assert_eq!(quad.runs.len(), 1, "the run must stage");
        assert_eq!(binary.len(), quad.len());
        loop {
            let a = binary.pop();
            assert_eq!(a, quad.pop());
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
            if backend == FelBackend::QuadHeap {
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
        // heap entry by entry, keeping its late ids.
        let runs: Vec<Vec<f64>> = (0..MAX_STAGED_RUNS + 3)
            .map(|r| {
                let mut times = vec![5.0; MIN_RUN];
                times.push(5.0 + r as f64);
                times
            })
            .collect();
        for backend in BACKENDS {
            let (order, staged) = late_rule_order(backend, &runs);
            if backend == FelBackend::QuadHeap {
                assert_eq!(staged, MAX_STAGED_RUNS, "the stage must have spilled");
            }
            assert_late_order(&order, &runs, &format!("spill, {backend:?}"));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cancel of a bulk-run entry")]
    fn cancel_rejects_late_ids() {
        let mut q = EventQueue::with_backend(FelBackend::QuadHeap);
        q.schedule_run(&[t(1.0); MIN_RUN], ());
        q.cancel(EventHandle { id: LATE, slot: 0 });
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
    fn runs_clone_their_payload_per_pop() {
        use std::rc::Rc;
        let payload = Rc::new(7u32);
        let mut q = EventQueue::with_backend(FelBackend::QuadHeap);
        q.schedule_run(&[t(1.0); 16], Rc::clone(&payload));
        // One stored copy, not one per entry.
        assert_eq!(Rc::strong_count(&payload), 2);
        let first = q.pop().expect("pending").1;
        assert_eq!(Rc::strong_count(&payload), 3);
        drop(first);
        while q.pop().is_some() {}
        assert_eq!(Rc::strong_count(&payload), 1, "the last pop moves it out");
    }

    #[test]
    fn interleaved_runs_singles_and_cancels_agree_across_backends() {
        let mut binary = EventQueue::with_backend(FelBackend::BinaryHeap);
        let mut quad = EventQueue::with_backend(FelBackend::QuadHeap);
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut clock = 0.0;
        let mut live = Vec::new();
        for i in 0..2_000_u64 {
            match next() % 6 {
                0 | 1 => {
                    let dt = (next() % 1000) as f64 / 100.0;
                    live.push((
                        i,
                        binary.schedule(t(clock + dt), i),
                        quad.schedule(t(clock + dt), i),
                    ));
                }
                2 => {
                    let start = clock + (next() % 100) as f64 / 10.0;
                    let n = 8 + (next() % 40) as usize;
                    let mut times: Vec<SimTime> = (0..n)
                        .map(|j| t(start + j as f64 * ((next() % 50) as f64 / 500.0)))
                        .collect();
                    // Each gap re-rolls, so the times need not be
                    // monotone: sort.
                    times.sort_unstable();
                    binary.schedule_run(&times, 1_000_000 + i);
                    quad.schedule_run(&times, 1_000_000 + i);
                }
                3 => {
                    let a = binary.pop();
                    assert_eq!(a, quad.pop());
                    if let Some((time, ev)) = a {
                        clock = time.as_secs();
                        live.retain(|&(id, _, _)| id != ev);
                    }
                }
                4 => {
                    if !live.is_empty() {
                        let (_, hb, hq) = live.swap_remove(next() as usize % live.len());
                        assert!(binary.cancel(hb));
                        assert!(quad.cancel(hq));
                    }
                }
                _ => {
                    let end = t(clock + (next() % 300) as f64 / 100.0);
                    let a = binary.pop_until(end);
                    assert_eq!(a, quad.pop_until(end));
                    if let Some((time, ev)) = a {
                        clock = time.as_secs();
                        live.retain(|&(id, _, _)| id != ev);
                    }
                }
            }
            assert_eq!(binary.len(), quad.len());
        }
        loop {
            let a = binary.pop();
            assert_eq!(a, quad.pop());
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn clear_drops_pending_runs() {
        let mut q = EventQueue::with_backend(FelBackend::QuadHeap);
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
        // pop: the overflow spills into the heap entry by entry, and
        // the pop order must still match the reference (which never
        // stages) exactly — spilling preserves insertion ids.
        let mut binary = EventQueue::with_backend(FelBackend::BinaryHeap);
        let mut quad = EventQueue::with_backend(FelBackend::QuadHeap);
        for i in 0..(6 * MAX_STAGED_RUNS as u64) {
            let base = ((i * 37) % 100) as f64;
            let times: Vec<SimTime> = (0..16).map(|j| t(base + j as f64 * 0.25)).collect();
            binary.schedule_run(&times, i);
            quad.schedule_run(&times, i);
        }
        loop {
            let a = binary.pop();
            assert_eq!(a, quad.pop());
            if a.is_none() {
                break;
            }
        }
    }
}

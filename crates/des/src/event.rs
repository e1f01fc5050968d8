//! Pending-event set (future-event list).
//!
//! [`EventQueue`] is a future-event list keyed by [`SimTime`]. Events
//! with equal timestamps are delivered in a fixed order, which keeps
//! simulations deterministic: individually scheduled events first, in
//! insertion (FIFO) order, then lane entries
//! ([`EventQueue::schedule_run`]).
//!
//! Individually scheduled events sit on an implicit min-heap with four
//! children per node, keyed by `(time, id)` packed into two `u64`s. The
//! simulator keeps 30–60 single events pending, a depth at which the
//! shallow, cache-friendly heap beats bucketed structures. The
//! reference it is checked against is a sorted list in the crate's
//! property tests, not a second backend.
//!
//! [`EventQueue::schedule`] returns an [`EventHandle`] that can later be
//! passed to [`EventQueue::cancel`], so models can withdraw timers
//! (boot deadlines, failure clocks) outright instead of filtering
//! tombstones at dispatch time.
//!
//! [`EventQueue::schedule_run`] releases many entries carrying one
//! payload — the simulator's arrivals — into a *lane* beside the heap:
//! a sorted array of time keys behind a cursor. Every pop compares the
//! lane head with the heap minimum once, and the lane loses ties, so at
//! an equal timestamp lane entries pop after every individually
//! scheduled event. An arrival costs an append and O(1) per pop instead
//! of a heap insertion.
//!
//! [`EventQueue::pop_until`] pops the earliest event only if it fires
//! at or before a bound; [`EventQueue::pop`] is the same merge without
//! a bound.

use crate::time::SimTime;

/// Identifies one scheduled (and not yet delivered) event.
///
/// A handle is *live* from [`EventQueue::schedule`] until the event is
/// popped or cancelled; cancelling a handle that is no longer live
/// returns `false` (see [`EventQueue::cancel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    id: u64,
    /// The entry's slot on the heap.
    slot: u32,
}

/// The future-event list's data structure. It has one value: the 4-ary
/// heap every [`EventQueue`] runs on. The type is kept so that code
/// naming it, such as [`EventQueue::with_backend`], still compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FelBackend {
    /// Implicit 4-ary min-heap.
    #[default]
    QuadHeap,
}

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
// 4-ary heap
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

/// The arrival lane: entries released through
/// [`EventQueue::schedule_run`], all carrying one payload, kept as
/// sorted [`time_key`]s behind a cursor.
///
/// The lane sits beside the heap, not in it: a pop compares the lane
/// head with the heap minimum, and the lane takes the pop only when it
/// is strictly earlier. So at an equal timestamp every entry placed
/// with [`EventQueue::schedule`] pops first, whenever it was scheduled.
struct Lane<E> {
    /// Released keys, non-decreasing; `keys[cursor..]` are pending.
    keys: Vec<u64>,
    cursor: usize,
    /// The payload every lane entry pops with.
    event: Option<Payload<E>>,
}

/// The lane's payload and its clone function, captured where `E: Clone`
/// is known, so popping needs no bound on `E`.
struct Payload<E> {
    event: E,
    clone: fn(&E) -> E,
}

impl<E> Lane<E> {
    fn new() -> Self {
        Lane {
            keys: Vec::new(),
            cursor: 0,
            event: None,
        }
    }

    #[inline]
    fn head(&self) -> Option<u64> {
        self.keys.get(self.cursor).copied()
    }

    /// Adds `times` to the lane, keeping it sorted: a sorted release
    /// that starts at or after the lane's tail (every release the
    /// simulator makes) is appended; any other re-sorts the pending
    /// keys. Lane entries share one payload, so the order of equal keys
    /// is unobservable.
    fn release(&mut self, times: &[SimTime]) {
        // Drop the popped prefix once it outweighs the pending tail, so
        // compaction costs O(1) per popped entry.
        if self.cursor > 0 && self.cursor * 2 >= self.keys.len() {
            self.keys.drain(..self.cursor);
            self.cursor = 0;
        }
        let from = self.keys.len();
        self.keys.extend(times.iter().map(|&t| time_key(t)));
        let check = from.saturating_sub(1).max(self.cursor);
        if !self.keys[check..].windows(2).all(|w| w[0] <= w[1]) {
            self.keys[self.cursor..].sort_unstable();
        }
    }

    /// Pops the head entry (the lane must have one).
    #[inline]
    fn pop(&mut self) -> (SimTime, E) {
        let time = key_time(self.keys[self.cursor]);
        self.cursor += 1;
        let payload = self.event.as_ref().expect("a released lane has a payload");
        (time, (payload.clone)(&payload.event))
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.cursor = 0;
        self.event = None;
    }
}

// ---------------------------------------------------------------------
// Public queue
// ---------------------------------------------------------------------

/// A future-event list with deterministic tie-breaking (FIFO among
/// single events, lane entries last) and event cancellation.
pub struct EventQueue<E> {
    heap: QuadHeap<E>,
    lane: Lane<E>,
    next_id: u64,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue; the same as [`new`](Self::new), as
    /// [`FelBackend`] has one value.
    pub fn with_backend(_: FelBackend) -> Self {
        Self::new()
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: QuadHeap::with_capacity(cap),
            lane: Lane::new(),
            next_id: 0,
            live: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `time`; the returned
    /// handle can cancel it while it is still pending.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.live += 1;
        let slot = self.heap.push(entry_key(time_key(time), id), event);
        EventHandle { id, slot }
    }

    /// Releases one entry carrying `event` at every time in `times`
    /// into the queue's lane. Returns `times.len()`.
    ///
    /// At an equal timestamp a lane entry pops after every entry placed
    /// by [`schedule`](Self::schedule), whenever that was scheduled.
    /// The lane keeps its entries sorted: a sorted release that starts
    /// at or after the lane's tail is appended; any other release
    /// (unsorted, or starting before the tail) re-sorts the pending
    /// entries. Releases are cheapest sorted and in time order, as the
    /// simulator's are.
    ///
    /// The lane holds **one** payload: every entry pops with a clone of
    /// the latest release's `event`, so all releases into a queue
    /// should carry equal payloads. Lane entries cannot be cancelled
    /// (no handles are returned).
    pub fn schedule_run(&mut self, times: &[SimTime], event: E) -> usize
    where
        E: Clone,
    {
        if times.is_empty() {
            return 0;
        }
        self.lane.release(times);
        self.lane.event = Some(Payload {
            event,
            clone: E::clone,
        });
        self.live += times.len();
        times.len()
    }

    /// Cancels a pending event. Returns whether an entry was withdrawn:
    /// `false` if the handle's event was already popped or cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        debug_assert!(handle.id < self.next_id, "foreign handle");
        let removed = self.heap.remove(handle.slot, handle.id);
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

    /// The one merge behind every pop: the lane head if it is strictly
    /// earlier than the heap minimum, else the heap minimum — if its
    /// time key is at most `limit`.
    #[inline]
    fn pop_within(&mut self, limit: u64) -> Option<(SimTime, E)> {
        let top = self.heap.peek_key().map(key_time_bits);
        let popped = match self.lane.head() {
            Some(lane) if top.is_none_or(|t| lane < t) => {
                if lane > limit {
                    return None;
                }
                self.lane.pop()
            }
            _ => {
                if top? > limit {
                    return None;
                }
                let node = self.heap.pop().expect("peeked");
                (key_time(key_time_bits(node.key)), node.event)
            }
        };
        self.live -= 1;
        Some(popped)
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let key = match (self.heap.peek_key().map(key_time_bits), self.lane.head()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        key.map(key_time)
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

    /// Drops every pending event, the lane's included.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5.0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn signed_zeros_share_a_key_and_stay_fifo() {
        // The packed key folds -0.0 onto +0.0: equal SimTimes, so the
        // tie goes to the earlier insertion.
        let mut q = EventQueue::new();
        q.schedule(t(0.0), 0);
        q.schedule(t(-0.0), 1);
        q.schedule(t(0.0), 2);
        q.schedule(t(-0.0), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
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
        let mut q = EventQueue::new();
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

    #[test]
    fn pop_until_and_pop_before_honour_the_lane() {
        let mut q = EventQueue::new();
        q.schedule(t(2.0), "single");
        q.schedule_run(&[t(1.5), t(3.0), t(3.0), t(4.0)], "lane");
        // Just before the lane head: nothing moves.
        assert_eq!(q.pop_until(t(1.499)), None);
        assert_eq!(q.pop_before(t(1.5)), None);
        assert_eq!(q.len(), 5);
        // At the bound: the lane head is due, then the single.
        assert_eq!(q.pop_until(t(1.5)), Some((t(1.5), "lane")));
        assert_eq!(q.pop_until(t(1.5)), None);
        assert_eq!(q.pop_before(t(2.5)), Some((t(2.0), "single")));
        // Strictly before the lane's next instant: the lane waits.
        assert_eq!(q.pop_before(t(3.0)), None);
        assert_eq!(q.peek_time(), Some(t(3.0)));
        assert_eq!(q.pop_until(t(3.5)), Some((t(3.0), "lane")));
        assert_eq!(q.pop_until(t(3.5)), Some((t(3.0), "lane")));
        assert_eq!(q.pop_until(t(3.5)), None);
        assert_eq!(q.pop_until(t(100.0)), Some((t(4.0), "lane")));
        assert_eq!(q.pop_until(t(100.0)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_withdraws_an_event() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "keep-1");
        let h = q.schedule(t(2.0), "drop");
        q.schedule(t(3.0), "keep-3");
        assert!(q.cancel(h));
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["keep-1", "keep-3"]);
    }

    #[test]
    fn cancel_everything_leaves_an_empty_queue() {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..50).map(|i| q.schedule(t(i as f64), i)).collect();
        for h in handles {
            assert!(q.cancel(h));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancel_of_a_dead_handle_returns_false() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1.0), 1);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        assert!(!q.cancel(h), "popped handle must not cancel");
        // The popped entry's slot is recycled: the dead handle names it
        // but must not withdraw its new occupant.
        let h2 = q.schedule(t(2.0), 2);
        assert!(!q.cancel(h));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(h2));
        assert!(!q.cancel(h2), "double cancel must fail");
        assert!(q.is_empty());
        let h3 = q.schedule(t(3.0), 3);
        q.clear();
        assert!(!q.cancel(h3), "cleared handle must not cancel");
        q.schedule(t(4.0), 4);
        assert!(!q.cancel(h3));
        assert_eq!(q.pop(), Some((t(4.0), 4)));
        assert!(q.is_empty());
    }

    /// Schedules 0..40 at scrambled times, cancels the entry `pick`
    /// selects from the heap's own layout, and checks the rest drain in
    /// order.
    fn cancel_at(pick: impl Fn(&QuadHeap<u32>) -> usize) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = (0..40u32)
            .map(|i| q.schedule(t(((i * 17) % 40) as f64), i))
            .collect();
        let heap = &q.heap;
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
        let mut q = EventQueue::new();
        let h = q.schedule(t(1.0), "head");
        q.schedule(t(2.0), "next");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.pop(), Some((t(2.0), "next")));
    }

    #[test]
    fn heap_survives_growth_and_drain() {
        let mut q = EventQueue::new();
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

    /// Pops everything, as `(time, payload)`.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(f64, E)> {
        std::iter::from_fn(|| q.pop())
            .map(|(time, e)| (time.as_secs(), e))
            .collect()
    }

    #[test]
    fn the_lane_loses_ties_to_singles_scheduled_before_and_after_it() {
        // At one instant, lane entries pop after every single event,
        // including one scheduled after the release.
        let mut q = EventQueue::new();
        q.schedule(t(5.0), 0);
        q.schedule_run(&[t(4.0), t(5.0), t(5.0), t(6.0)], 9);
        q.schedule(t(5.0), 1);
        q.schedule(t(6.0), 2);
        let order = drain(&mut q);
        let expected = vec![
            (4.0, 9),
            (5.0, 0),
            (5.0, 1),
            (5.0, 9),
            (5.0, 9),
            (6.0, 2),
            (6.0, 9),
        ];
        assert_eq!(order, expected);
    }

    #[test]
    fn overlapping_releases_merge_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_run(&[t(1.0), t(3.0), t(5.0), t(7.0)], 'a');
        assert_eq!(q.pop(), Some((t(1.0), 'a')));
        // Lands before the tail: sorted into the pending entries.
        q.schedule_run(&[t(2.0), t(3.0), t(6.0), t(9.0)], 'a');
        // Lands after the tail: appended.
        q.schedule_run(&[t(9.5), t(10.0)], 'a');
        // Unsorted and partly before the head: sorted in as well.
        q.schedule_run(&[t(4.0), t(0.5), t(8.0)], 'a');
        q.schedule(t(3.0), 's');
        assert_eq!(q.len(), 13);
        let order = drain(&mut q);
        let expected = vec![
            (0.5, 'a'),
            (2.0, 'a'),
            (3.0, 's'),
            (3.0, 'a'),
            (3.0, 'a'),
            (4.0, 'a'),
            (5.0, 'a'),
            (6.0, 'a'),
            (7.0, 'a'),
            (8.0, 'a'),
            (9.0, 'a'),
            (9.5, 'a'),
            (10.0, 'a'),
        ];
        assert_eq!(order, expected);
        assert!(q.is_empty());
    }

    #[test]
    fn the_lane_stores_one_payload() {
        use std::rc::Rc;
        let payload = Rc::new(7u32);
        let mut q = EventQueue::new();
        q.schedule_run(&[t(1.0); 16], Rc::clone(&payload));
        // One stored copy, not one per entry.
        assert_eq!(Rc::strong_count(&payload), 2);
        let first = q.pop().expect("pending").1;
        assert_eq!(Rc::strong_count(&payload), 3);
        drop(first);
        q.clear();
        assert_eq!(Rc::strong_count(&payload), 1, "clear drops the payload");
    }

    #[test]
    fn clear_and_a_recycled_queue_drop_the_lane() {
        let mut q = EventQueue::new();
        let times: Vec<SimTime> = (0..32).map(|i| t(i as f64)).collect();
        q.schedule_run(&times, ());
        assert_eq!(q.pop(), Some((t(0.0), ())));
        q.schedule(t(50.0), ());
        assert_eq!(q.len(), 32);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        // The queue stays usable, and the old lane is gone.
        q.schedule_run(&times[10..12], ());
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec![(10.0, ()), (11.0, ())]);
        // An engine recycling a queue starts without its lane.
        struct Count(u32);
        impl crate::World for Count {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut crate::Scheduler<'_, ()>) {
                self.0 += 1;
            }
        }
        let mut q = EventQueue::new();
        q.schedule_run(&[t(1.0), t(2.0)], ());
        let mut engine = crate::Engine::with_recycled_queue(Count(0), q);
        assert_eq!(engine.run(), 0);
    }
}

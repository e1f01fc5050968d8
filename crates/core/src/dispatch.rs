//! Request dispatch and admission (§IV-C).
//!
//! The SaaS layer's admission control rejects a request when *all*
//! virtualized application instances already hold `k` requests; accepted
//! requests are forwarded to an instance by a dispatch strategy —
//! round-robin in the paper, with least-outstanding and random variants
//! for the ablation benches.
//!
//! Strategies operate on an [`InstancePool`] *probe* rather than a
//! materialized slice: the simulator serves ~10⁹ requests, so the hot
//! path must not allocate or scan the whole pool per request. Pools that
//! track a free-instance counter make the admission check O(1), and
//! round-robin then finds a target in O(expected probes).

/// What the dispatcher can see of one application instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceView {
    /// Requests currently held (in service + queued).
    pub in_system: u32,
    /// Queue capacity k of this instance.
    pub capacity: u32,
    /// Whether the instance accepts new requests (false while draining
    /// toward destruction or still booting).
    pub accepting: bool,
}

impl InstanceView {
    /// Whether this instance can take one more request.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.accepting && self.in_system < self.capacity
    }
}

/// Read-only probe over the instance pool.
pub trait InstancePool {
    /// Number of instances visible to the dispatcher.
    fn len(&self) -> usize;

    /// Whether the pool is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View of instance `i`.
    fn view(&self, i: usize) -> InstanceView;

    /// Whether any instance has room. Pools should override this with an
    /// O(1) counter; the default scans.
    fn has_free(&self) -> bool {
        (0..self.len()).any(|i| self.view(i).has_room())
    }

    /// Has-room flags packed as a bitset, when the pool maintains one:
    /// bit `i` of word `i / 64` is set iff `view(i).has_room()`, and
    /// every bit at index `≥ len()` is zero. Strategies that can use it
    /// (round-robin) then select by word scans + trailing zeros instead
    /// of probing instances one by one. The default (`None`) keeps the
    /// per-instance probe loop.
    fn room_bits(&self) -> Option<&[u64]> {
        None
    }
}

impl InstancePool for Vec<InstanceView> {
    fn len(&self) -> usize {
        <[InstanceView]>::len(self)
    }
    fn view(&self, i: usize) -> InstanceView {
        self[i]
    }
}

impl InstancePool for &[InstanceView] {
    fn len(&self) -> usize {
        <[InstanceView]>::len(self)
    }
    fn view(&self, i: usize) -> InstanceView {
        self[i]
    }
}

/// A strategy for picking the instance that receives the next request.
///
/// `pick` is generic over the pool probe (not `&dyn InstancePool`), so
/// the per-request strategy and the pool's `view`/`has_free` compile
/// down to direct, inlinable calls. The trait is therefore not
/// object-safe: a run holds its strategy as the closed [`AnyDispatcher`]
/// enum, and each strategy converts into it with `From`.
pub trait Dispatcher: Send {
    /// Index of the chosen instance, or `None` to reject the request
    /// (admission control: every instance is full or not accepting).
    ///
    /// `random01` is a uniform draw in `[0, 1)` supplied by the caller so
    /// strategies stay deterministic under the simulation's seeded
    /// streams.
    fn pick<P: InstancePool + ?Sized>(&mut self, pool: &P, random01: f64) -> Option<usize>;

    /// [`pick`](Self::pick) with the uniform draw taken from `draw`,
    /// called only by a strategy that reads it, so a caller's random
    /// stream advances only when the draw is used. A strategy that
    /// ignores `random01` overrides this to skip the draw.
    #[inline]
    fn pick_drawing<P: InstancePool + ?Sized>(
        &mut self,
        pool: &P,
        draw: impl FnOnce() -> f64,
    ) -> Option<usize> {
        self.pick(pool, draw())
    }

    /// Human-readable strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Every dispatch strategy in the repository, as a closed enum: the
/// one dispatcher type a run holds.
///
/// The dispatcher is called once per request, so it stays a `match`
/// rather than a vtable: a three-variant `match` compiles to a jump the
/// branch predictor resolves perfectly within a run (the variant never
/// changes mid-simulation), and the callee bodies stay inlinable.
#[derive(Debug, Clone)]
pub enum AnyDispatcher {
    /// The paper's round-robin strategy.
    RoundRobin(RoundRobin),
    /// Join-the-shortest-queue.
    LeastOutstanding(LeastOutstanding),
    /// Random probing.
    Random(RandomDispatch),
}

impl Default for AnyDispatcher {
    fn default() -> Self {
        AnyDispatcher::RoundRobin(RoundRobin::new())
    }
}

impl From<RoundRobin> for AnyDispatcher {
    fn from(d: RoundRobin) -> Self {
        AnyDispatcher::RoundRobin(d)
    }
}

impl From<LeastOutstanding> for AnyDispatcher {
    fn from(d: LeastOutstanding) -> Self {
        AnyDispatcher::LeastOutstanding(d)
    }
}

impl From<RandomDispatch> for AnyDispatcher {
    fn from(d: RandomDispatch) -> Self {
        AnyDispatcher::Random(d)
    }
}

impl Dispatcher for AnyDispatcher {
    #[inline]
    fn pick<P: InstancePool + ?Sized>(&mut self, pool: &P, random01: f64) -> Option<usize> {
        match self {
            AnyDispatcher::RoundRobin(d) => d.pick(pool, random01),
            AnyDispatcher::LeastOutstanding(d) => d.pick(pool, random01),
            AnyDispatcher::Random(d) => d.pick(pool, random01),
        }
    }

    #[inline]
    fn pick_drawing<P: InstancePool + ?Sized>(
        &mut self,
        pool: &P,
        draw: impl FnOnce() -> f64,
    ) -> Option<usize> {
        match self {
            AnyDispatcher::RoundRobin(d) => d.pick_drawing(pool, draw),
            AnyDispatcher::LeastOutstanding(d) => d.pick_drawing(pool, draw),
            AnyDispatcher::Random(d) => d.pick_drawing(pool, draw),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyDispatcher::RoundRobin(d) => d.name(),
            AnyDispatcher::LeastOutstanding(d) => d.name(),
            AnyDispatcher::Random(d) => d.name(),
        }
    }
}

/// The paper's strategy: cycle through instances in order, skipping full
/// or non-accepting ones.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates the strategy.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

/// First set bit at ring position ≥ `start`, wrapping once past `n`.
/// Relies on the [`InstancePool::room_bits`] contract that bits at
/// index ≥ `n` are zero, so a word scan never reports a phantom
/// instance.
#[inline]
fn first_set_ring(bits: &[u64], start: usize, n: usize) -> Option<usize> {
    let words = n.div_ceil(64);
    debug_assert!(bits.len() >= words && start < n);
    let sw = start >> 6;
    let head_mask = !0u64 << (start & 63);
    let mut w = bits[sw] & head_mask;
    let mut wi = sw;
    loop {
        if w != 0 {
            return Some((wi << 6) | w.trailing_zeros() as usize);
        }
        wi += 1;
        if wi >= words {
            break;
        }
        w = bits[wi];
    }
    // Wrap around: positions [0, start).
    for (wi, &word) in bits.iter().enumerate().take(sw + 1) {
        let w = if wi == sw { word & !head_mask } else { word };
        if w != 0 {
            return Some((wi << 6) | w.trailing_zeros() as usize);
        }
    }
    None
}

impl Dispatcher for RoundRobin {
    #[inline]
    fn pick<P: InstancePool + ?Sized>(&mut self, pool: &P, _random01: f64) -> Option<usize> {
        let n = pool.len();
        if n == 0 || !pool.has_free() {
            return None;
        }
        // Re-enter the ring with a division only when the pool has
        // shrunk past the pointer since the last pick, then wrap
        // conditionally: the probe order is identical to the old
        // `(start + off) % n` loop without a division per probe.
        let start = if self.next < n {
            self.next
        } else {
            self.next % n
        };
        if let Some(bits) = pool.room_bits() {
            // Branch-free selection: word scans + trailing zeros land on
            // the same instance the probe loop below would (the first
            // ring position ≥ start with room), without touching the
            // per-instance views.
            let i = first_set_ring(bits, start, n)?;
            self.next = i + 1;
            if self.next == n {
                self.next = 0;
            }
            return Some(i);
        }
        let mut i = start;
        for _ in 0..n {
            if pool.view(i).has_room() {
                self.next = i + 1;
                if self.next == n {
                    self.next = 0;
                }
                return Some(i);
            }
            i += 1;
            if i == n {
                i = 0;
            }
        }
        None
    }

    #[inline]
    fn pick_drawing<P: InstancePool + ?Sized>(
        &mut self,
        pool: &P,
        _draw: impl FnOnce() -> f64,
    ) -> Option<usize> {
        self.pick(pool, 0.0)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Join-the-shortest-queue: pick the accepting instance with the fewest
/// requests in system (first index wins ties). O(n) per request.
#[derive(Debug, Clone, Default)]
pub struct LeastOutstanding;

impl LeastOutstanding {
    /// Creates the strategy.
    pub fn new() -> Self {
        LeastOutstanding
    }
}

impl Dispatcher for LeastOutstanding {
    #[inline]
    fn pick<P: InstancePool + ?Sized>(&mut self, pool: &P, _random01: f64) -> Option<usize> {
        let mut best: Option<(usize, u32)> = None;
        for i in 0..pool.len() {
            let v = pool.view(i);
            if v.has_room() && best.is_none_or(|(_, b)| v.in_system < b) {
                best = Some((i, v.in_system));
                if v.in_system == 0 {
                    break; // cannot do better than idle
                }
            }
        }
        best.map(|(i, _)| i)
    }

    #[inline]
    fn pick_drawing<P: InstancePool + ?Sized>(
        &mut self,
        pool: &P,
        _draw: impl FnOnce() -> f64,
    ) -> Option<usize> {
        self.pick(pool, 0.0)
    }

    fn name(&self) -> &'static str {
        "least-outstanding"
    }
}

/// Random probing among instances with room: up to `len` probes, then a
/// linear fallback. O(1) expected when the pool has slack.
#[derive(Debug, Clone, Default)]
pub struct RandomDispatch;

impl RandomDispatch {
    /// Creates the strategy.
    pub fn new() -> Self {
        RandomDispatch
    }
}

impl Dispatcher for RandomDispatch {
    #[inline]
    fn pick<P: InstancePool + ?Sized>(&mut self, pool: &P, random01: f64) -> Option<usize> {
        let n = pool.len();
        if n == 0 || !pool.has_free() {
            return None;
        }
        // Deterministic probe sequence derived from the single draw.
        let mut x = (random01 * n as f64) as usize % n;
        for step in 0..n {
            let i = (x + step * 7 + step * step) % n; // mixed stride probing
            if pool.view(i).has_room() {
                return Some(i);
            }
            x = (x + 1) % n;
        }
        // has_free said yes, so a linear scan must find one.
        (0..n).find(|&i| pool.view(i).has_room())
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(in_system: u32, capacity: u32, accepting: bool) -> InstanceView {
        InstanceView {
            in_system,
            capacity,
            accepting,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::new();
        let views = vec![view(0, 2, true); 3];
        let picks: Vec<_> = (0..6).map(|_| rr.pick(&views, 0.0).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_full_and_draining() {
        let mut rr = RoundRobin::new();
        let views = vec![
            view(2, 2, true),  // full
            view(0, 2, false), // draining
            view(1, 2, true),  // room
        ];
        assert_eq!(rr.pick(&views, 0.0), Some(2));
        // Pointer advanced past 2; next free is again 2.
        assert_eq!(rr.pick(&views, 0.0), Some(2));
    }

    #[test]
    fn admission_rejects_when_all_full() {
        // The paper's rule: all instances at k ⇒ reject.
        let views = vec![view(2, 2, true), view(2, 2, true)];
        assert_eq!(RoundRobin::new().pick(&views, 0.0), None);
        assert_eq!(LeastOutstanding::new().pick(&views, 0.0), None);
        assert_eq!(RandomDispatch::new().pick(&views, 0.5), None);
    }

    #[test]
    fn empty_pool_rejects() {
        let views: Vec<InstanceView> = vec![];
        assert_eq!(RoundRobin::new().pick(&views, 0.0), None);
        assert_eq!(RandomDispatch::new().pick(&views, 0.0), None);
    }

    #[test]
    fn least_outstanding_picks_minimum() {
        let mut lo = LeastOutstanding::new();
        let views = vec![view(2, 3, true), view(0, 3, true), view(1, 3, true)];
        assert_eq!(lo.pick(&views, 0.0), Some(1));
        // Non-accepting minimum is skipped.
        let views = vec![view(2, 3, true), view(0, 3, false), view(1, 3, true)];
        assert_eq!(lo.pick(&views, 0.0), Some(2));
    }

    #[test]
    fn random_dispatch_never_picks_full() {
        let mut rd = RandomDispatch::new();
        let views = vec![view(0, 2, true), view(2, 2, true), view(0, 2, true)];
        let mut seen = [false; 3];
        for i in 0..100 {
            let u = i as f64 / 100.0;
            let pick = rd.pick(&views, u).unwrap();
            assert_ne!(pick, 1, "full instance must never be picked");
            seen[pick] = true;
        }
        assert!(seen[0] && seen[2]);
    }

    #[test]
    fn round_robin_spreads_evenly() {
        // Fairness: over many picks on an always-free pool, counts match.
        let mut rr = RoundRobin::new();
        let views = vec![view(0, 10, true); 7];
        let mut counts = [0u32; 7];
        for _ in 0..700 {
            counts[rr.pick(&views, 0.0).unwrap()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
    }

    #[test]
    fn any_dispatcher_matches_inner_strategy() {
        // The enum must be a transparent wrapper: same picks, same
        // internal state evolution, same name.
        let views = vec![view(1, 2, true), view(2, 2, true), view(0, 2, true)];
        let mut rr = RoundRobin::new();
        let mut any = AnyDispatcher::from(RoundRobin::new());
        let mut boxed = Box::new(RoundRobin::new());
        assert_eq!(any.name(), rr.name());
        for i in 0..10 {
            let u = i as f64 / 10.0;
            let want = rr.pick(&views, u);
            assert_eq!(any.pick(&views, u), want);
            assert_eq!(boxed.pick(&views, u), want);
        }
        assert_eq!(
            AnyDispatcher::from(LeastOutstanding::new()).name(),
            "least-outstanding"
        );
        assert_eq!(AnyDispatcher::from(RandomDispatch::new()).name(), "random");
        assert!(matches!(
            AnyDispatcher::default(),
            AnyDispatcher::RoundRobin(_)
        ));
    }

    #[test]
    fn only_random_dispatch_draws() {
        let views = vec![view(0, 2, true); 3];
        let mut draws = 0;
        let mut draw = || {
            draws += 1;
            0.5
        };
        assert_eq!(RoundRobin::new().pick_drawing(&views, &mut draw), Some(0));
        assert_eq!(
            LeastOutstanding::new().pick_drawing(&views, &mut draw),
            Some(0)
        );
        let mut any = AnyDispatcher::from(RoundRobin::new());
        assert_eq!(any.pick_drawing(&views, &mut draw), Some(0));
        let mut boxed = Box::new(LeastOutstanding::new());
        assert_eq!(boxed.pick_drawing(&views, &mut draw), Some(0));
        let picked = RandomDispatch::new().pick(&views, 0.5);
        assert_eq!(
            RandomDispatch::new().pick_drawing(&views, &mut draw),
            picked
        );
        let mut any = AnyDispatcher::from(RandomDispatch::new());
        assert_eq!(any.pick_drawing(&views, &mut draw), picked);
        assert_eq!(draws, 2, "only the random strategy draws");
    }

    #[test]
    fn round_robin_re_enters_a_shrunk_ring() {
        let mut rr = RoundRobin::new();
        let five = vec![view(0, 2, true); 5];
        for _ in 0..4 {
            rr.pick(&five, 0.0);
        }
        // The pointer is at 4; a three-instance pool re-enters at 4 % 3.
        let three = vec![view(0, 2, true); 3];
        let picks: Vec<_> = (0..4).map(|_| rr.pick(&three, 0.0).unwrap()).collect();
        assert_eq!(picks, vec![1, 2, 0, 1]);
    }

    /// A pool that also publishes its has-room flags as a bitset.
    struct BitPool {
        views: Vec<InstanceView>,
        bits: Vec<u64>,
    }

    impl BitPool {
        fn new(views: Vec<InstanceView>) -> Self {
            let mut bits = vec![0u64; views.len().div_ceil(64).max(1)];
            for (i, v) in views.iter().enumerate() {
                if v.has_room() {
                    bits[i >> 6] |= 1 << (i & 63);
                }
            }
            BitPool { views, bits }
        }
    }

    impl InstancePool for BitPool {
        fn len(&self) -> usize {
            self.views.len()
        }
        fn view(&self, i: usize) -> InstanceView {
            self.views[i]
        }
        fn room_bits(&self) -> Option<&[u64]> {
            Some(&self.bits)
        }
    }

    #[test]
    fn bitset_round_robin_picks_identically_to_branchy() {
        // Deterministic pseudo-random pool shapes spanning word
        // boundaries (n < 64, = 64, > 64), both strategies stepped in
        // lockstep: every pick and every internal-pointer evolution
        // must agree.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next_u = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for n in [1usize, 3, 17, 63, 64, 65, 128, 200] {
            for _ in 0..8 {
                let views: Vec<InstanceView> =
                    (0..n).map(|_| view(next_u(3) as u32, 2, true)).collect();
                let pool = BitPool::new(views.clone());
                let mut fast = RoundRobin::new();
                let mut slow = RoundRobin::new();
                for _ in 0..2 * n {
                    assert_eq!(
                        fast.pick(&pool, 0.0),
                        slow.pick(&views, 0.0),
                        "n={n}: bitset and branchy round-robin diverged"
                    );
                    assert_eq!(fast.next, slow.next, "n={n}: ring pointer diverged");
                }
            }
        }
    }

    #[test]
    fn bitset_round_robin_rejects_full_pool() {
        let pool = BitPool::new(vec![view(2, 2, true); 70]);
        assert!(pool.bits.iter().all(|&w| w == 0));
        assert_eq!(RoundRobin::new().pick(&pool, 0.0), None);
    }

    #[test]
    fn first_set_ring_wraps_and_masks() {
        // Only position 3 set: found from any start, including starts
        // past it (wrap) and starts in later words.
        let mut bits = vec![0u64; 3];
        bits[0] = 1 << 3;
        for start in [0usize, 3, 4, 63, 64, 130] {
            assert_eq!(first_set_ring(&bits, start, 140), Some(3), "start={start}");
        }
        // A second set bit in word 2 wins for starts beyond 3.
        bits[2] = 1 << 5;
        assert_eq!(first_set_ring(&bits, 4, 140), Some(133));
        assert_eq!(first_set_ring(&bits, 134, 140), Some(3));
        assert_eq!(first_set_ring(&[0u64; 2], 10, 100), None);
    }

    #[test]
    fn custom_pool_override_is_respected() {
        // A pool whose has_free lies (returns false) forces rejection —
        // documents that dispatchers trust the O(1) counter.
        struct Lying;
        impl InstancePool for Lying {
            fn len(&self) -> usize {
                3
            }
            fn view(&self, _i: usize) -> InstanceView {
                view(0, 2, true)
            }
            fn has_free(&self) -> bool {
                false
            }
        }
        assert_eq!(RoundRobin::new().pick(&Lying, 0.0), None);
    }
}

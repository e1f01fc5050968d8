//! Stable, dependency-free 64-bit hashing.
//!
//! [`StableHasher`] is FNV-1a with the standard 64-bit offset basis and
//! prime — the same function [`RngFactory`](crate::RngFactory) uses to
//! turn stream labels into seed discriminators. It is *stable* in the
//! strong sense the run cache needs: the digest of a byte string is
//! fixed by this file alone, independent of platform, process, compiler
//! version, or `std::hash` randomization, so a hash persisted on disk
//! today still addresses the same content in any future build. (By
//! contrast `std::collections::hash_map::DefaultHasher` is documented
//! to be allowed to change between releases.)
//!
//! FNV-1a's diffusion on short inputs is modest but its collision
//! behaviour over the multi-hundred-byte canonical-JSON keys the cache
//! feeds it is indistinguishable from random for 64-bit use. Callers
//! that need a one-shot digest can use [`stable_hash64`].
//!
//! Every method is a `const fn`, so a digest of bytes known at compile
//! time (the run cache's digest of the committed goldens) is computed
//! by this same code at compile time.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// An incremental FNV-1a 64-bit hasher with a stable, documented
/// algorithm (safe to persist digests across builds).
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// Starts a hasher at the FNV offset basis.
    pub const fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    #[inline]
    pub const fn write(&mut self, bytes: &[u8]) {
        let mut i = 0;
        while i < bytes.len() {
            self.state ^= bytes[i] as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
            i += 1;
        }
    }

    /// Feeds a `u32` as little-endian bytes.
    #[inline]
    pub const fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }

    /// Feeds a `u64` as little-endian bytes.
    #[inline]
    pub const fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// The digest of everything written so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot digest of a byte string (FNV-1a 64).
#[inline]
pub const fn stable_hash64(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv1a_vectors() {
        // Reference digests of the canonical FNV-1a test strings.
        assert_eq!(stable_hash64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(stable_hash64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = StableHasher::new();
        h.write(b"hello ");
        h.write(b"world");
        assert_eq!(h.finish(), stable_hash64(b"hello world"));
    }

    #[test]
    fn integer_writes_are_little_endian_bytes() {
        let mut a = StableHasher::new();
        a.write_u32(0x0403_0201);
        a.write_u64(0x0807_0605_0403_0201);
        let mut b = StableHasher::new();
        b.write(&[1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Smoke-level avalanche: single-byte and ordering differences
        // must not collide.
        let digests = [
            stable_hash64(b"scenario-a"),
            stable_hash64(b"scenario-b"),
            stable_hash64(b"a-scenario"),
            stable_hash64(b"scenario-a "),
        ];
        for (i, x) in digests.iter().enumerate() {
            for y in &digests[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }
}

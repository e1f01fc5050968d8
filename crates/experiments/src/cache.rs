//! Content-addressed on-disk cache of completed runs.
//!
//! A run is fully determined by its [`Scenario`] and replication index
//! (the simulation is deterministic given its derived seed), so its
//! [`RunSummary`] can be addressed by *content*: the cache key is a
//! stable 64-bit hash over the digest of the committed goldens, the
//! canonical JSON of the scenario, the replication index and its
//! derived seed. Re-running an unchanged figure then costs one file
//! read per replication instead of a simulation.
//!
//! Keying rules:
//!
//! * **Every** result-influencing scenario field is in the canonical
//!   JSON (`Scenario::to_json` serializes all fields; an exhaustiveness
//!   test breaks when a new field is added unserialized).
//! * Keys move when the goldens move. A change to run semantics or to
//!   `RunSummary` fails the goldens (`tests/golden_summaries.rs`), and
//!   regenerating them changes the bytes `build.rs` embeds, so every
//!   key moves with no manual step. Old entries simply become dead
//!   files (there is no eviction — entries are a few hundred bytes and
//!   campaigns are finite). A change to the key derivation itself moves
//!   the literals `run_keys_are_pinned` holds.
//! * A corrupted, truncated, or unparseable entry is a **miss**, never
//!   an error: the run is recomputed and the entry rewritten.
//!
//! Writes go through a per-process temp file renamed into place, so a
//! concurrent reader sees either the old entry or the new one, never a
//! torn write.

use std::io;
use std::path::{Path, PathBuf};

use crate::runner::replication_seed;
use crate::scenario::Scenario;
use vmprov_cloudsim::RunSummary;
use vmprov_des::StableHasher;
use vmprov_json::{FromJson, Json, ToJson};

/// The committed goldens, `(file name, bytes)` in name order, embedded
/// by `build.rs`.
const GOLDENS: &[(&str, &[u8])] = include!(concat!(env!("OUT_DIR"), "/goldens.rs"));

/// The tag every key mixes in, computed at compile time.
const GOLDENS_TAG: u64 = goldens_digest(GOLDENS);

/// Digest of a goldens table: each file's name and bytes, each
/// length-prefixed so no two tables hash alike by shifting a boundary.
pub const fn goldens_digest(goldens: &[(&str, &[u8])]) -> u64 {
    let mut h = StableHasher::new();
    let mut i = 0;
    while i < goldens.len() {
        let (name, bytes) = goldens[i];
        h.write_u64(name.len() as u64);
        h.write(name.as_bytes());
        h.write_u64(bytes.len() as u64);
        h.write(bytes);
        i += 1;
    }
    h.finish()
}

/// Computes the content-addressed cache key of `(scenario, rep)`.
pub fn run_key(scenario: &Scenario, rep: u32) -> u64 {
    run_key_with(GOLDENS_TAG, scenario, rep)
}

/// [`run_key`] under the goldens digest `tag`.
fn run_key_with(tag: u64, scenario: &Scenario, rep: u32) -> u64 {
    let mut h = StableHasher::new();
    h.write(b"vmprov-run-cache");
    h.write_u64(tag);
    h.write(scenario.to_json().to_string_canonical().as_bytes());
    h.write_u32(rep);
    // The derived seed is implied by (scenario.seed, rep), but hashing
    // it too means a future change to the derivation function cannot
    // silently alias old entries.
    h.write_u64(replication_seed(scenario.seed, rep));
    h.finish()
}

/// Result of a cache probe, kept three-valued so campaign statistics
/// can distinguish "never ran" from "entry rotted".
#[derive(Debug)]
pub enum Lookup {
    /// A valid entry was found.
    Hit(Box<RunSummary>),
    /// No entry on disk.
    Miss,
    /// An entry exists but is unreadable/corrupt; treated as a miss
    /// (the run is recomputed and the entry overwritten).
    Corrupt,
}

/// A directory of `{key:016x}.json` run summaries.
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: PathBuf,
}

impl RunCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<RunCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RunCache { dir })
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Probes the cache for `key`.
    pub fn lookup(&self, key: u64) -> Lookup {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            // Unreadable for any other reason (permissions, I/O error):
            // degrade to recomputing, same as corrupt content.
            Err(_) => return Lookup::Corrupt,
        };
        match Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|j| RunSummary::from_json(&j))
        {
            Ok(summary) => Lookup::Hit(Box::new(summary)),
            Err(_) => Lookup::Corrupt,
        }
    }

    /// Stores `summary` under `key` (atomic rename; last writer wins —
    /// harmless, since every writer computes the same bytes for a key).
    pub fn store(&self, key: u64, summary: &RunSummary) -> io::Result<()> {
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{key:016x}", std::process::id()));
        std::fs::write(&tmp, summary.to_json().to_string_pretty())?;
        let result = std::fs::rename(&tmp, self.entry_path(key));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }
}

/// What a [`cache_first`] pass found and ran.
#[derive(Debug)]
pub(crate) struct CacheFirst {
    /// Every run's summary, in input order, and whether the cache
    /// answered it.
    pub(crate) runs: Vec<(RunSummary, bool)>,
    /// Runs answered from the cache.
    pub(crate) hits: usize,
    /// Entries that existed but were unreadable (also run, so also
    /// counted among the misses).
    pub(crate) corrupt: usize,
}

/// The cache-first pass of campaigns and replay grids: looks every
/// `(scenario, rep)` run up in `cache`, hands the misses — each with
/// its input index — to `run_misses` (called only when something
/// missed; it returns the summaries tagged with those indices, in any
/// order), stores the fresh summaries best-effort (a full disk must not
/// fail the caller), and returns every summary in input order.
pub(crate) fn cache_first<F>(
    cache: Option<&RunCache>,
    runs: Vec<(Scenario, u32)>,
    run_misses: F,
) -> CacheFirst
where
    F: FnOnce(Vec<(usize, Scenario, u32)>) -> Vec<(usize, RunSummary)>,
{
    let mut slots: Vec<Option<(RunSummary, bool)>> = Vec::with_capacity(runs.len());
    let mut keys = Vec::new();
    let mut misses = Vec::new();
    let mut corrupt = 0usize;
    for (slot, (scenario, rep)) in runs.into_iter().enumerate() {
        if let Some(cache) = cache {
            let key = run_key(&scenario, rep);
            match cache.lookup(key) {
                Lookup::Hit(summary) => {
                    slots.push(Some((*summary, true)));
                    continue;
                }
                Lookup::Corrupt => corrupt += 1,
                Lookup::Miss => {}
            }
            keys.push((slot, key));
        }
        slots.push(None);
        misses.push((slot, scenario, rep));
    }
    let hits = slots.len() - misses.len();
    if !misses.is_empty() {
        for (slot, summary) in run_misses(misses) {
            slots[slot] = Some((summary, false));
        }
    }
    if let Some(cache) = cache {
        for (slot, key) in keys {
            let (summary, _) = slots[slot].as_ref().expect("every miss ran");
            let _ = cache.store(key, summary);
        }
    }
    CacheFirst {
        runs: slots
            .into_iter()
            .map(|run| run.expect("every miss ran"))
            .collect(),
        hits,
        corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_once;
    use crate::scenario::{AnalyzerSpec, PolicySpec};
    use vmprov_des::SimTime;
    use vmprov_workloads::TraceSpec;

    fn tiny() -> Scenario {
        Scenario::web(PolicySpec::Static(5), 31).with_horizon(SimTime::from_secs(60.0))
    }

    fn tmp_cache(tag: &str) -> RunCache {
        let dir =
            std::env::temp_dir().join(format!("vmprov_cache_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunCache::open(dir).expect("cache dir")
    }

    #[test]
    fn store_then_lookup_roundtrips_bit_identically() {
        let cache = tmp_cache("roundtrip");
        let s = tiny();
        let fresh = run_once(&s, 0);
        let key = run_key(&s, 0);
        assert!(matches!(cache.lookup(key), Lookup::Miss));
        cache.store(key, &fresh).expect("store");
        match cache.lookup(key) {
            Lookup::Hit(cached) => assert_eq!(*cached, fresh),
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_and_truncated_entries_are_misses_not_errors() {
        let cache = tmp_cache("corrupt");
        let s = tiny();
        let key = run_key(&s, 0);
        // Garbage bytes.
        std::fs::write(cache.entry_path(key), b"{not json").unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Corrupt));
        // Valid JSON, wrong shape.
        std::fs::write(cache.entry_path(key), b"{\"policy\": 3}").unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Corrupt));
        // Truncated entry (torn write simulation).
        let full = run_once(&s, 0).to_json().to_string_pretty();
        std::fs::write(cache.entry_path(key), &full[..full.len() / 2]).unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Corrupt));
        // Recovery: a store over the rot yields a hit again.
        let fresh = run_once(&s, 0);
        cache.store(key, &fresh).unwrap();
        assert!(matches!(cache.lookup(key), Lookup::Hit(_)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_depends_on_rep_and_seed() {
        let s = tiny();
        let k0 = run_key(&s, 0);
        assert_eq!(k0, run_key(&s, 0), "key must be stable");
        assert_ne!(k0, run_key(&s, 1));
        let mut reseeded = s.clone();
        reseeded.seed += 1;
        assert_ne!(k0, run_key(&reseeded, 0));
    }

    fn pinned_trace() -> TraceSpec {
        TraceSpec {
            path: std::path::PathBuf::from("/nonexistent/pinned.csv"),
            content_hash: 0x5EED_CAFE,
            total_requests: 60_000,
            batches: 60_000,
            end_time: SimTime::from_secs(600.0),
            mean_rate: 100.0,
            chunk: 4096,
        }
    }

    /// One scenario of each workload kind.
    fn every_kind() -> [Scenario; 3] {
        [
            Scenario::web(PolicySpec::Adaptive, 42).with_horizon(SimTime::from_secs(3600.0)),
            Scenario::scientific(PolicySpec::Static(45), 11)
                .with_horizon(SimTime::from_hours(10.0)),
            Scenario::trace_replay(pinned_trace(), PolicySpec::Adaptive, 7)
                .with_analyzer(AnalyzerSpec::SlidingMle { window_secs: 900.0 }),
        ]
    }

    /// Editing any one byte of any golden moves the key of every
    /// scenario kind: regenerating a golden re-keys the whole cache.
    #[test]
    fn every_golden_byte_moves_every_key() {
        assert!(!GOLDENS.is_empty(), "the goldens table is embedded");
        for edited in 0..GOLDENS.len() {
            let mut copy: Vec<(&str, Vec<u8>)> =
                GOLDENS.iter().map(|&(n, b)| (n, b.to_vec())).collect();
            let bytes = &mut copy[edited].1;
            let at = bytes.len() / 2;
            bytes[at] ^= 1;
            let table: Vec<(&str, &[u8])> = copy.iter().map(|(n, b)| (*n, &b[..])).collect();
            let tag = goldens_digest(&table);
            for s in every_kind() {
                assert_ne!(
                    run_key_with(tag, &s, 0),
                    run_key(&s, 0),
                    "{}: a flipped byte left the {:?} key in place",
                    GOLDENS[edited].0,
                    s.workload
                );
            }
        }
    }

    /// The key derivation, pinned to literals under a fixed tag for one
    /// scenario of each workload kind. A change to `Scenario`'s
    /// canonical JSON, the hash or the seed derivation fails here;
    /// regenerating a golden does not (it moves the tag, not the
    /// derivation).
    #[test]
    fn run_keys_are_pinned() {
        const TAG: u64 = 0x0123_4567_89ab_cdef;
        let [web, sci, replay] = every_kind();
        assert_eq!(
            run_key(&web, 0),
            run_key_with(goldens_digest(GOLDENS), &web, 0)
        );
        assert_eq!(run_key_with(TAG, &web, 0), 0xa551_c624_4cfa_d909);
        assert_eq!(run_key_with(TAG, &web, 3), 0x495e_9efe_6c3a_1706);
        assert_eq!(run_key_with(TAG, &sci, 2), 0xddc8_6eda_41d7_59c5);
        assert_eq!(run_key_with(TAG, &replay, 1), 0xbe6d_aacb_6007_ff64);
    }
}

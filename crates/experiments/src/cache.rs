//! Content-addressed on-disk cache of completed runs.
//!
//! A run is fully determined by its [`Scenario`] and replication index
//! (the simulation is deterministic given its derived seed), so its
//! [`RunSummary`] can be addressed by *content*: the cache key is a
//! stable 64-bit hash over the canonical JSON of the scenario plus the
//! replication index, its derived seed, and a schema tag. Re-running an
//! unchanged figure then costs one file read per replication instead of
//! a simulation.
//!
//! Keying rules:
//!
//! * **Every** result-influencing scenario field is in the canonical
//!   JSON (`Scenario::to_json` serializes all fields; an exhaustiveness
//!   test breaks when a new field is added unserialized).
//! * [`CACHE_SCHEMA_VERSION`] must be bumped whenever the *meaning* of
//!   a cached entry changes: a `RunSummary` field is added/removed/
//!   reinterpreted, simulation semantics change intentionally (i.e.
//!   whenever goldens are regenerated), or the key derivation itself
//!   changes. The bump orphans all old entries, which simply become
//!   dead files (there is no eviction — entries are a few hundred bytes
//!   and campaigns are finite).
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

/// Bump on any change to run semantics, `RunSummary` layout, or key
/// derivation (see the module docs for the checklist).
///
/// v2: `Scenario` gained the `sampler` field (variate-sampler backend),
/// which enters the canonical JSON and therefore every key.
///
/// v3: `Scenario` gained the `shards` field (intra-run shard count).
/// Serial entries are unchanged in meaning, but the canonical JSON now
/// carries a `shards` member, so every key moves; sharded cells hash
/// distinctly from serial ones because the sharded stream is its own
/// deterministic semantics.
///
/// v4: `Scenario` gained the `analyzer` (rate-estimator spec) and
/// `trace` (streamed trace replay) fields. Replay entries key on the
/// trace's *content hash* — never its path or chunk size — so two
/// copies of one trace share entries while an edited trace can never
/// alias the old one.
///
/// v5: `Scenario` gained the `arrival_run` field (arrival-burst
/// prefetch depth). The default of 1 leaves run semantics untouched
/// (the scalar path stays golden-identical), but depths above 1 are a
/// different event-id interleaving on workloads whose arrivals tie
/// control ticks exactly, so batched cells must hash apart.
///
/// v6: `Scenario` gained the `stats_mode` field (per-request stats
/// sink). The streaming default stays golden-identical, but batched
/// accumulation folds samples in a different float order, so batched
/// cells must hash apart — and every key moves because the canonical
/// JSON now carries a `stats_mode` member, so warm v5 caches miss
/// cleanly instead of replaying stale summaries.
///
/// v7: the intra-run shard engine and the batched stats sink were
/// removed, and with them the `shards` and `stats_mode` members of the
/// canonical JSON. Surviving serial streaming runs keep their meaning,
/// but every key moves, so warm v6 caches miss cleanly.
///
/// v8: the ziggurat variate sampler was removed, and with it the
/// `sampler` member of the canonical JSON. Inverse-CDF runs keep their
/// meaning, but every key moves, so warm v7 caches miss cleanly.
///
/// v9: the `arrival_run` member left the canonical JSON. Bulk-released
/// arrivals now tie-break after every individually scheduled event at
/// their instant, so every prefetch depth yields the scalar summary and
/// the depth is a performance setting of `SimConfig`, not part of a
/// run's identity. Scalar runs keep their meaning, but every key moves,
/// so warm v8 caches (including their batched cells, keyed on the old
/// interleaving) miss cleanly.
///
/// v10: the event-list backend member left the canonical JSON. The
/// calendar queue was replaced by a 4-ary heap, and every event-list
/// backend yielded the same summary, so the backend was an execution
/// setting, not part of a run's identity (it has since been removed).
/// Results keep their meaning, but every key moves, so warm v9 caches
/// (keyed per backend) miss cleanly.
///
/// v11: the web workload clips its last interval to the horizon. A web
/// run whose horizon is not a multiple of 60 s used to simulate the
/// whole last minute past its end; it now submits only arrivals before
/// the horizon, so its summary changes meaning. Runs at tiled horizons
/// (every recorded figure and golden) keep theirs, but a cached entry
/// does not say which kind of run it answers, so every key moves and
/// warm v10 caches miss cleanly.
pub const CACHE_SCHEMA_VERSION: u32 = 11;

/// Computes the content-addressed cache key of `(scenario, rep)`.
pub fn run_key(scenario: &Scenario, rep: u32) -> u64 {
    let mut h = StableHasher::new();
    h.write(b"vmprov-run-cache");
    h.write_u32(CACHE_SCHEMA_VERSION);
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

    /// The canonical JSON of `s` as an older schema hashed it:
    /// `fel_backend` (v9 and earlier, always the calendar default
    /// here) after `boot_delay`, then `extra` right after it.
    fn legacy_members(s: &Scenario, extra: &[(&str, Json)]) -> Vec<(String, Json)> {
        let Json::Obj(mut members) = s.to_json() else {
            panic!("scenario JSON must be an object");
        };
        let at = members
            .iter()
            .position(|(k, _)| k == "boot_delay")
            .expect("the JSON carries boot_delay")
            + 1;
        let legacy = std::iter::once(("fel_backend", Json::from("calendar")))
            .chain(extra.iter().cloned())
            .map(|(k, v)| (k.to_string(), v));
        members.splice(at..at, legacy);
        members
    }

    /// Hashes `members` the way a binary at schema `version` did.
    fn legacy_key(version: u32, members: Vec<(String, Json)>, s: &Scenario) -> u64 {
        let mut h = StableHasher::new();
        h.write(b"vmprov-run-cache");
        h.write_u32(version);
        h.write(Json::Obj(members).to_string_canonical().as_bytes());
        h.write_u32(0);
        h.write_u64(replication_seed(s.seed, 0));
        h.finish()
    }

    /// A warm cache keyed under schema v7 must miss cleanly after the
    /// v8 re-keying (the v7 canonical JSON also carried a `sampler`
    /// member), rather than replay entries against the new key space.
    /// The probe uses the current key, which moved again at v9 and v10.
    #[test]
    fn v7_keyed_entries_miss_under_v8() {
        let cache = tmp_cache("v7_rekey");
        let s = tiny();
        let fresh = run_once(&s, 0);
        // Reconstruct the v7 key: old schema tag, canonical JSON plus
        // the removed members (exactly what v7 binaries hashed for a
        // scalar inverse-CDF run).
        let mut members = legacy_members(&s, &[("sampler", Json::from("inverse_cdf"))]);
        members.push(("arrival_run".to_string(), Json::from(1u32)));
        let v7_key = legacy_key(7, members, &s);
        cache.store(v7_key, &fresh).expect("store");
        let v8_key = run_key(&s, 0);
        assert_ne!(v7_key, v8_key, "schema bump must move every key");
        assert!(
            matches!(cache.lookup(v8_key), Lookup::Miss),
            "a v7-keyed entry must not satisfy a v8 probe"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A warm cache keyed under schema v8 must miss cleanly after the
    /// v9 re-keying (the v8 canonical JSON also carried an
    /// `arrival_run` member, whose depth-64 cells held a different
    /// interleaving on the scientific workload).
    #[test]
    fn v8_keyed_entries_miss_under_v9() {
        let cache = tmp_cache("v8_rekey");
        let s = tiny();
        let fresh = run_once(&s, 0);
        let mut v8_keys = Vec::new();
        for depth in [1u32, 64] {
            // Reconstruct the v8 key: old schema tag, canonical JSON
            // plus the removed trailing member (exactly what v8
            // binaries hashed for a run at this depth).
            let mut members = legacy_members(&s, &[]);
            members.push(("arrival_run".to_string(), Json::from(depth)));
            let v8_key = legacy_key(8, members, &s);
            cache.store(v8_key, &fresh).expect("store");
            v8_keys.push(v8_key);
        }
        let v9_key = run_key(&s, 0);
        assert!(
            !v8_keys.contains(&v9_key),
            "schema bump must move every key"
        );
        assert!(
            matches!(cache.lookup(v9_key), Lookup::Miss),
            "a v8-keyed entry must not satisfy a v9 probe"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A warm cache keyed under schema v9 must miss cleanly after the
    /// v10 re-keying (the v9 canonical JSON also carried a
    /// `fel_backend` member, one key per backend).
    #[test]
    fn v9_keyed_entries_miss_under_v10() {
        let cache = tmp_cache("v9_rekey");
        let s = tiny();
        let fresh = run_once(&s, 0);
        let mut v9_keys = Vec::new();
        for fel in ["calendar", "binary_heap"] {
            // Reconstruct the v9 key: old schema tag, canonical JSON
            // with the removed member after `boot_delay`.
            let mut members = legacy_members(&s, &[]);
            let at = members
                .iter()
                .position(|(k, _)| k == "fel_backend")
                .expect("legacy members carry fel_backend");
            members[at].1 = Json::from(fel);
            let v9_key = legacy_key(9, members, &s);
            cache.store(v9_key, &fresh).expect("store");
            v9_keys.push(v9_key);
        }
        let v10_key = run_key(&s, 0);
        assert!(
            !v9_keys.contains(&v10_key),
            "schema bump must move every key"
        );
        assert!(
            matches!(cache.lookup(v10_key), Lookup::Miss),
            "a v9-keyed entry must not satisfy a v10 probe"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// The v11 key space, pinned to literals for one web and one
    /// trace-replay scenario. A change to `Scenario`'s canonical JSON,
    /// the hash or the seed derivation that moves a key without a
    /// schema bump fails here.
    #[test]
    fn run_keys_are_pinned() {
        let web = Scenario::web(PolicySpec::Adaptive, 42).with_horizon(SimTime::from_secs(3600.0));
        let spec = TraceSpec {
            path: std::path::PathBuf::from("/nonexistent/pinned.csv"),
            content_hash: 0x5EED_CAFE,
            total_requests: 60_000,
            batches: 60_000,
            end_time: SimTime::from_secs(600.0),
            mean_rate: 100.0,
            chunk: 4096,
        };
        let replay = Scenario::trace_replay(spec, PolicySpec::Adaptive, 7)
            .with_analyzer(AnalyzerSpec::SlidingMle { window_secs: 900.0 });
        assert_eq!(CACHE_SCHEMA_VERSION, 11);
        assert_eq!(run_key(&web, 0), 0x612e_92c8_f696_73ea);
        assert_eq!(run_key(&web, 3), 0x8a19_025c_a1ae_9da1);
        assert_eq!(run_key(&replay, 1), 0x881d_b966_7107_4175);
    }
}

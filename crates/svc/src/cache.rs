//! The bounded result cache: canonical scenario query → response bytes.
//!
//! Experiments are pure functions of their parameters (the repo's
//! determinism contract), so the service can answer a repeated scenario
//! query without re-simulating. The key is the experiment name plus the
//! *canonicalized* request JSON ([`tts_units::json::Json::canonical`]):
//! `{"seed":3,"servers":8}` and `{"servers":8,"seed":3}` are the same
//! scenario and share an entry. The cached value is the exact rendered
//! response body, so a hot answer is byte-identical to the cold one by
//! construction.
//!
//! Two bounds keep a long-lived daemon honest:
//!
//! * **LRU byte cap** — total cached body bytes never exceed the cap;
//!   beyond it the least-recently-used entries are evicted (a single
//!   entry larger than the cap is still admitted — evicting it on insert
//!   would make the hot path never hot).
//! * **Disk persistence** (optional) — each entry is written to the
//!   persistence directory as a `…summary.json` body plus a `…key`
//!   sidecar, in the same rendering `repro --write` uses for
//!   `results/{name}.summary.json`; on startup the directory is reloaded,
//!   so a restarted daemon serves its prior scenarios warm and still
//!   byte-identical.
//!
//! Hit/miss/entry/byte telemetry is tagged [`Determinism::BestEffort`] —
//! cache state depends on request arrival order across connections.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use tts_obs::{Counter, Determinism, Gauge, MetricsSink};
use tts_units::json::Json;

/// One cached body plus its recency stamp.
struct Entry {
    body: Arc<Vec<u8>>,
    /// Logical clock value of the last hit or insert (monotone; larger is
    /// more recent).
    last_used: u64,
}

struct CacheState {
    map: HashMap<String, Entry>,
    /// Total bytes across all cached bodies.
    bytes: usize,
    /// Logical clock for LRU recency.
    clock: u64,
}

/// A shared, bounded map from canonical query key to rendered body.
pub struct ResultCache {
    state: Mutex<CacheState>,
    /// Byte cap across cached bodies (`usize::MAX` = unbounded).
    cap_bytes: usize,
    /// Directory for persisted entries, when persistence is on.
    dir: Option<PathBuf>,
    hits: Counter,
    misses: Counter,
    entries: Gauge,
    bytes_gauge: Gauge,
    evictions: Counter,
}

impl ResultCache {
    /// An empty unbounded, memory-only cache reporting into `sink`.
    #[must_use]
    pub fn new(sink: &MetricsSink) -> Self {
        Self::bounded(usize::MAX, None, sink)
    }

    /// A cache holding at most `cap_bytes` of body bytes (0 is treated as
    /// unbounded), persisting entries under `dir` when given. Persisted
    /// entries from a previous run are reloaded immediately — recency
    /// starts fresh, in directory-listing order.
    #[must_use]
    pub fn bounded(cap_bytes: usize, dir: Option<PathBuf>, sink: &MetricsSink) -> Self {
        let cache = Self {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                bytes: 0,
                clock: 0,
            }),
            cap_bytes: if cap_bytes == 0 {
                usize::MAX
            } else {
                cap_bytes
            },
            dir,
            hits: sink.counter_tagged("svc.cache.hits", Determinism::BestEffort),
            misses: sink.counter_tagged("svc.cache.misses", Determinism::BestEffort),
            entries: sink.gauge_tagged("svc.cache.entries", Determinism::BestEffort),
            bytes_gauge: sink.gauge_tagged("svc.cache.bytes", Determinism::BestEffort),
            evictions: sink.counter_tagged("svc.cache.evictions", Determinism::BestEffort),
        };
        cache.reload_from_disk();
        cache
    }

    /// The cache key for `experiment` queried with `params_doc` (the
    /// parsed request body). Canonicalization makes the key insensitive
    /// to member order and whitespace in the incoming JSON.
    #[must_use]
    pub fn key(experiment: &str, params_doc: &Json) -> String {
        format!("{experiment}\u{1f}{}", params_doc.canonical())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached body for `key`, if present (counts a hit or miss and
    /// refreshes the entry's recency).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let mut state = self.lock();
        state.clock += 1;
        let now = state.clock;
        let found = state.map.get_mut(key).map(|e| {
            e.last_used = now;
            Arc::clone(&e.body)
        });
        drop(state);
        match &found {
            Some(_) => self.hits.incr(),
            None => self.misses.incr(),
        }
        found
    }

    /// Stores `body` under `key` and returns the shared handle. If
    /// another worker raced the same computation in, the first stored
    /// bytes win (both computations rendered identical bytes anyway —
    /// that is the determinism contract this cache leans on). Inserting
    /// past the byte cap evicts least-recently-used entries; a newly
    /// persisted entry is written to the persistence directory.
    pub fn insert(&self, key: String, body: Vec<u8>) -> Arc<Vec<u8>> {
        let mut state = self.lock();
        state.clock += 1;
        let now = state.clock;
        if let Some(existing) = state.map.get_mut(&key) {
            existing.last_used = now;
            return Arc::clone(&existing.body);
        }
        let entry = Arc::new(body);
        state.bytes += entry.len();
        state.map.insert(
            key.clone(),
            Entry {
                body: Arc::clone(&entry),
                last_used: now,
            },
        );
        // Evict LRU until under the cap — but never the entry just
        // inserted (a single oversized body stays resident; the
        // alternative is a cache that can never serve it hot).
        while state.bytes > self.cap_bytes && state.map.len() > 1 {
            let Some(victim) = state
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(gone) = state.map.remove(&victim) {
                state.bytes -= gone.body.len();
                self.evictions.incr();
                self.remove_persisted(&victim);
            }
        }
        self.entries.set(state.map.len() as f64);
        self.bytes_gauge.set(state.bytes as f64);
        drop(state);
        self.persist(&key, &entry);
        entry
    }

    /// Number of cached scenarios.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cached body bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// The on-disk stem for `key`: the experiment name (the part before
    /// the unit separator, filtered to filename-safe characters) plus a
    /// hash of the whole key, so distinct scenarios of one experiment get
    /// distinct files.
    fn file_stem(key: &str) -> String {
        let name: String = key
            .split('\u{1f}')
            .next()
            .unwrap_or("entry")
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .take(48)
            .collect();
        let name = if name.is_empty() {
            "entry".to_string()
        } else {
            name
        };
        format!("{name}-{:016x}", tts_units::fnv1a64(key.as_bytes()))
    }

    /// Writes `key`'s body as `{stem}.summary.json` plus a `{stem}.key`
    /// sidecar holding the exact cache key. I/O failures are swallowed:
    /// persistence is an optimization, never a correctness dependency.
    fn persist(&self, key: &str, body: &[u8]) {
        let Some(dir) = &self.dir else { return };
        let stem = Self::file_stem(key);
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join(format!("{stem}.key")), key.as_bytes());
        let _ = std::fs::write(dir.join(format!("{stem}.summary.json")), body);
    }

    fn remove_persisted(&self, key: &str) {
        let Some(dir) = &self.dir else { return };
        let stem = Self::file_stem(key);
        let _ = std::fs::remove_file(dir.join(format!("{stem}.key")));
        let _ = std::fs::remove_file(dir.join(format!("{stem}.summary.json")));
    }

    /// Loads every `{stem}.key` + `{stem}.summary.json` pair from the
    /// persistence directory. Pairs whose body is missing, or whose key
    /// file no longer hashes to its own stem (a renamed or tampered
    /// file), are skipped.
    fn reload_from_disk(&self) {
        let Some(dir) = &self.dir else { return };
        let Ok(listing) = std::fs::read_dir(dir) else {
            return;
        };
        let mut state = self.lock();
        for entry in listing.flatten() {
            let path = entry.path();
            let is_key = path.extension().is_some_and(|e| e == "key");
            if !is_key {
                continue;
            }
            let Ok(key) = std::fs::read_to_string(&path) else {
                continue;
            };
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if Self::file_stem(&key) != stem {
                continue;
            }
            let Ok(body) = std::fs::read(path.with_extension("summary.json")) else {
                continue;
            };
            state.clock += 1;
            let now = state.clock;
            if !state.map.contains_key(&key) {
                state.bytes += body.len();
                state.map.insert(
                    key,
                    Entry {
                        body: Arc::new(body),
                        last_used: now,
                    },
                );
            }
        }
        // Honour the cap on reload too (oldest listing order goes first).
        while state.bytes > self.cap_bytes && state.map.len() > 1 {
            let Some(victim) = state
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(gone) = state.map.remove(&victim) {
                state.bytes -= gone.body.len();
                self.remove_persisted(&victim);
            }
        }
        self.entries.set(state.map.len() as f64);
        self.bytes_gauge.set(state.bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_units::json::parse;

    #[test]
    fn keys_are_insensitive_to_member_order() {
        let a = parse(r#"{"seed":3,"servers":8}"#).unwrap();
        let b = parse(r#"{ "servers" : 8, "seed" : 3 }"#).unwrap();
        assert_eq!(ResultCache::key("dcsim", &a), ResultCache::key("dcsim", &b));
        assert_ne!(ResultCache::key("dcsim", &a), ResultCache::key("fig7", &a));
    }

    #[test]
    fn hit_returns_the_exact_stored_bytes_and_counts() {
        let sink = MetricsSink::fresh();
        let cache = ResultCache::new(&sink);
        let key = ResultCache::key("fig7", &parse("{}").unwrap());
        assert!(cache.get(&key).is_none());
        let stored = cache.insert(key.clone(), b"{\"x\":1}".to_vec());
        let hot = cache.get(&key).expect("cached");
        assert_eq!(hot, stored);
        assert_eq!(cache.len(), 1);
        let c = |name: &str| sink.counter_tagged(name, Determinism::BestEffort).value();
        assert_eq!(c("svc.cache.hits"), 1);
        assert_eq!(c("svc.cache.misses"), 1);
    }

    #[test]
    fn racing_inserts_keep_the_first_entry() {
        let cache = ResultCache::new(&MetricsSink::disabled());
        let first = cache.insert("k".into(), b"one".to_vec());
        let second = cache.insert("k".into(), b"one".to_vec());
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn byte_cap_evicts_least_recently_used() {
        let cache = ResultCache::bounded(10, None, &MetricsSink::disabled());
        cache.insert("a".into(), vec![1; 4]);
        cache.insert("b".into(), vec![2; 4]);
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.get("a").is_some());
        cache.insert("c".into(), vec![3; 4]);
        assert!(cache.get("b").is_none(), "LRU entry evicted");
        assert!(cache.get("a").is_some() && cache.get("c").is_some());
        assert!(cache.bytes() <= 10);
    }

    #[test]
    fn an_oversized_entry_is_admitted_alone() {
        let cache = ResultCache::bounded(4, None, &MetricsSink::disabled());
        cache.insert("small".into(), vec![0; 2]);
        cache.insert("big".into(), vec![0; 64]);
        assert!(cache.get("big").is_some(), "oversized entry stays");
        assert_eq!(cache.len(), 1, "everything else evicted");
    }

    #[test]
    fn persisted_entries_reload_byte_identical() {
        let dir = std::env::temp_dir().join(format!("tts-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = ResultCache::key("fig7", &parse(r#"{"threads":2}"#).unwrap());
        let body = b"{\n  \"figure\": 7\n}".to_vec();
        {
            let cache = ResultCache::bounded(0, Some(dir.clone()), &MetricsSink::disabled());
            cache.insert(key.clone(), body.clone());
        }
        let reloaded = ResultCache::bounded(0, Some(dir.clone()), &MetricsSink::disabled());
        let hot = reloaded.get(&key).expect("reloaded from disk");
        assert_eq!(*hot, body, "bytes survive the round trip exactly");
        // The body file is the plain summary JSON, named after the
        // experiment.
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            files
                .iter()
                .any(|f| f.starts_with("fig7-") && f.ends_with(".summary.json")),
            "{files:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_key_files_are_skipped_on_reload() {
        let dir = std::env::temp_dir().join(format!("tts-cache-tamper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("fig7-0000000000000000.key"), "fig7\u{1f}{}").unwrap();
        std::fs::write(dir.join("fig7-0000000000000000.summary.json"), b"{}").unwrap();
        let cache = ResultCache::bounded(0, Some(dir.clone()), &MetricsSink::disabled());
        assert!(cache.is_empty(), "stem/key mismatch is not loaded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

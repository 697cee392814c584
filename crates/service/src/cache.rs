//! The content-addressed run cache.
//!
//! Determinism is what makes this cache sound: the simulator produces a
//! byte-exact `cohesion-metrics/v1` document for a given
//! `(config, kernel, scale, trace seed, code version)`, so the document
//! *is* a pure function of the request and can be stored and replayed
//! verbatim. The key is a 128-bit FNV-1a hash over
//! [`RunRequest::canonical`] plus [`CODE_VERSION`]; the code version
//! participates so a build whose simulation semantics changed can never
//! serve a stale document from an old cache directory.
//!
//! On disk (when a cache directory is configured) entries live under
//! `<dir>/<first two hex digits>/<key>.json` — fanned out so a hot cache
//! does not put tens of thousands of files in one directory. A document
//! is written to `<key>.json.<n>.tmp` beside its final name and renamed
//! onto it, so a crash mid-write leaves at most a temporary file, which
//! the next [`RunCache::at_dir`] deletes. In memory the cache is an LRU
//! bounded by an entry cap; evicting an entry also removes its file.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::request::RunRequest;

/// The code-version string folded into every cache key.
///
/// Bump the workspace version whenever a change alters simulation output
/// (the determinism test suite is the guard that says when); the wire
/// suffix changes only with the protocol. Old cache directories remain on
/// disk but simply never hit again.
pub const CODE_VERSION: &str = concat!("cohesion-", env!("CARGO_PKG_VERSION"), "+wire1");

/// A 128-bit content-addressed cache key, rendered as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey([u8; 16]);

impl CacheKey {
    /// The key for one validated request under [`CODE_VERSION`].
    pub fn for_request(req: &RunRequest) -> CacheKey {
        let material = format!("{CODE_VERSION}|{}", req.canonical());
        // Two independent 64-bit FNV-1a lanes (distinct offset bases) give
        // a 128-bit key; collision probability is negligible at any
        // realistic cache size, and the function is stable across
        // platforms and rust versions (unlike `DefaultHasher`).
        let h0 = fnv1a64(material.as_bytes(), 0xcbf2_9ce4_8422_2325);
        let h1 = fnv1a64(material.as_bytes(), 0x6c62_272e_07bb_0142);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&h0.to_be_bytes());
        out[8..].copy_from_slice(&h1.to_be_bytes());
        CacheKey(out)
    }

    /// Parses the 32-hex-digit form.
    ///
    /// # Errors
    ///
    /// Anything that is not exactly 32 hex digits.
    pub fn parse(s: &str) -> Result<CacheKey, String> {
        let s = s.trim();
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("cache key must be 32 hex digits, got {s:?}"));
        }
        let mut out = [0u8; 16];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hex = std::str::from_utf8(chunk).expect("ascii");
            out[i] = u8::from_str_radix(hex, 16).expect("hex digits");
        }
        Ok(CacheKey(out))
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

fn fnv1a64(data: &[u8], offset_basis: u64) -> u64 {
    let mut h = offset_basis;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a document.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Documents inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU cap.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
}

struct Entry {
    doc: std::sync::Arc<String>,
    last_used: u64,
}

struct CacheState {
    map: HashMap<CacheKey, Entry>,
    /// Monotonic logical clock driving LRU ordering (no wall time: the
    /// whole service stays deterministic apart from latency).
    tick: u64,
}

/// A bounded, optionally disk-backed run cache. All methods are `&self`;
/// the cache is shared across connection threads.
pub struct RunCache {
    dir: Option<PathBuf>,
    cap: usize,
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    /// Numbers each insert's temporary file, so two inserts of one key
    /// never write the same file.
    tmp_seq: AtomicU64,
}

impl RunCache {
    /// An in-memory cache holding at most `cap` entries (clamped ≥ 1).
    pub fn in_memory(cap: usize) -> RunCache {
        RunCache {
            dir: None,
            cap: cap.max(1),
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// A disk-backed cache rooted at `dir` (created if missing), holding
    /// at most `cap` entries. Existing `<xx>/<32 hex>.json` files are
    /// loaded eagerly — a restarted daemon keeps its warm cache — and
    /// leftover `*.tmp` files of interrupted inserts are deleted.
    ///
    /// # Errors
    ///
    /// Directory creation or read failures.
    pub fn at_dir(dir: PathBuf, cap: usize) -> std::io::Result<RunCache> {
        std::fs::create_dir_all(&dir)?;
        let mut cache = RunCache::in_memory(cap);
        cache.dir = Some(dir.clone());
        {
            let state = cache.state.get_mut().expect("new mutex");
            let mut shards: Vec<_> = std::fs::read_dir(&dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            shards.sort();
            for shard in shards {
                let mut files: Vec<_> = std::fs::read_dir(&shard)?
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .collect();
                files.sort();
                for path in files {
                    if path.extension().is_some_and(|e| e == "tmp") {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                        continue;
                    };
                    let Ok(key) = CacheKey::parse(stem) else {
                        continue;
                    };
                    if state.map.len() >= cache.cap {
                        continue;
                    }
                    if let Ok(doc) = std::fs::read_to_string(&path) {
                        state.tick += 1;
                        let tick = state.tick;
                        state.map.insert(
                            key,
                            Entry {
                                doc: std::sync::Arc::new(doc),
                                last_used: tick,
                            },
                        );
                    }
                }
            }
        }
        Ok(cache)
    }

    /// Looks up `key`, bumping its LRU position. Counts a hit or miss.
    pub fn get(&self, key: CacheKey) -> Option<std::sync::Arc<String>> {
        let mut st = self.state.lock().expect("cache poisoned");
        st.tick += 1;
        let tick = st.tick;
        match st.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(std::sync::Arc::clone(&entry.doc))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Like [`RunCache::get`] but without touching the hit/miss counters —
    /// for opportunistic double-checks (e.g. a queued job rechecking
    /// whether a concurrent connection already computed its key) that
    /// should not distort the observed hit rate.
    pub fn peek(&self, key: CacheKey) -> Option<std::sync::Arc<String>> {
        let mut st = self.state.lock().expect("cache poisoned");
        st.tick += 1;
        let tick = st.tick;
        st.map.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            std::sync::Arc::clone(&entry.doc)
        })
    }

    /// Inserts `doc` under `key`, writing the disk file (best-effort,
    /// through a temporary file renamed into place) and evicting the
    /// least-recently-used entry beyond the cap.
    pub fn insert(&self, key: CacheKey, doc: String) {
        if let Some(path) = self.path_of(key) {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let n = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
            let tmp = path.with_extension(format!("json.{n}.tmp"));
            let written = std::fs::write(&tmp, &doc).and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                let _ = std::fs::remove_file(&tmp);
                crate::log::log(
                    "cache-write-error",
                    &[
                        ("path", path.display().to_string()),
                        ("error", e.to_string()),
                    ],
                );
            }
        }
        let mut st = self.state.lock().expect("cache poisoned");
        st.tick += 1;
        let tick = st.tick;
        st.map.insert(
            key,
            Entry {
                doc: std::sync::Arc::new(doc),
                last_used: tick,
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while st.map.len() > self.cap {
            let victim = st
                .map
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| *k)
                .expect("nonempty over cap");
            st.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(path) = self.path_of(victim) {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// The on-disk path for `key`, if the cache is disk-backed.
    pub fn path_of(&self, key: CacheKey) -> Option<PathBuf> {
        let hex = key.to_string();
        self.dir
            .as_ref()
            .map(|d| d.join(&hex[..2]).join(format!("{hex}.json")))
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.state.lock().expect("cache poisoned").map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohesion_kernels::Scale;

    fn req(seed: u64) -> RunRequest {
        RunRequest {
            kernel: "sobel".into(),
            scale: Scale::Tiny,
            cores: 16,
            point: "swcc".into(),
            seed,
            shards: 1,
        }
    }

    #[test]
    fn key_is_deterministic_and_seed_sensitive() {
        assert_eq!(CacheKey::for_request(&req(3)), CacheKey::for_request(&req(3)));
        assert_ne!(CacheKey::for_request(&req(3)), CacheKey::for_request(&req(4)));
    }

    #[test]
    fn key_hex_round_trips() {
        let k = CacheKey::for_request(&req(0));
        let hex = k.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(CacheKey::parse(&hex).unwrap(), k);
        assert!(CacheKey::parse("xyz").is_err());
        assert!(CacheKey::parse("0123").is_err());
    }

    #[test]
    fn in_memory_hit_miss_and_lru_eviction() {
        let c = RunCache::in_memory(2);
        let (k1, k2, k3) = (
            CacheKey::for_request(&req(1)),
            CacheKey::for_request(&req(2)),
            CacheKey::for_request(&req(3)),
        );
        assert!(c.get(k1).is_none());
        c.insert(k1, "one".into());
        c.insert(k2, "two".into());
        assert_eq!(c.get(k1).unwrap().as_str(), "one"); // k1 now most recent
        c.insert(k3, "three".into()); // evicts k2 (LRU)
        assert!(c.get(k2).is_none());
        assert_eq!(c.get(k1).unwrap().as_str(), "one");
        assert_eq!(c.get(k3).unwrap().as_str(), "three");
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.insertions, 3);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn disk_cache_persists_across_reopen_and_evicts_files() {
        let dir = test_dir("persist");
        let k1 = CacheKey::for_request(&req(1));
        let k2 = CacheKey::for_request(&req(2));
        {
            let c = RunCache::at_dir(dir.clone(), 8).unwrap();
            c.insert(k1, "doc-one".into());
            c.insert(k2, "doc-two".into());
            assert!(c.path_of(k1).unwrap().is_file());
        }
        {
            let c = RunCache::at_dir(dir.clone(), 8).unwrap();
            assert_eq!(c.get(k1).unwrap().as_str(), "doc-one");
            assert_eq!(c.get(k2).unwrap().as_str(), "doc-two");
        }
        {
            // cap 1: loading keeps one entry; inserting evicts the file too
            let c = RunCache::at_dir(dir.clone(), 1).unwrap();
            let k3 = CacheKey::for_request(&req(3));
            c.insert(k3, "doc-three".into());
            assert_eq!(c.stats().entries, 1);
            assert!(c.path_of(k3).unwrap().is_file());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cohesion-cache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn insert_leaves_only_the_final_file() {
        let dir = test_dir("rename");
        let k = CacheKey::for_request(&req(1));
        let c = RunCache::at_dir(dir.clone(), 8).unwrap();
        c.insert(k, "{\"doc\":1}".into());
        let path = c.path_of(k).unwrap();
        let names: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from(format!("{k}.json"))]);
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"doc\":1}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_mid_insert_leaves_nothing_to_load() {
        let dir = test_dir("crash");
        let k = CacheKey::for_request(&req(1));
        let shard = dir.join(&k.to_string()[..2]);
        std::fs::create_dir_all(&shard).unwrap();
        let tmp = shard.join(format!("{k}.json.0.tmp"));
        std::fs::write(&tmp, "{\"doc\":").unwrap();
        let c = RunCache::at_dir(dir.clone(), 8).unwrap();
        assert_eq!(c.stats().entries, 0);
        assert!(c.get(k).is_none());
        assert!(!tmp.exists(), "the truncated temporary file stays on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

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
//! The victim is popped from an index ordered by `(last use, key)`, and
//! its file is removed after the lock that every lookup takes is released.

use std::collections::{BTreeSet, HashMap};
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
    /// Every entry's `(last_used, key)`; the first is the LRU victim.
    order: BTreeSet<(u64, CacheKey)>,
    /// Monotonic logical clock driving LRU ordering (no wall time: the
    /// whole service stays deterministic apart from latency).
    tick: u64,
}

impl CacheState {
    /// Marks `key` used now and returns its document, if held.
    fn touch(&mut self, key: CacheKey) -> Option<std::sync::Arc<String>> {
        self.tick += 1;
        let entry = self.map.get_mut(&key)?;
        self.order.remove(&(entry.last_used, key));
        entry.last_used = self.tick;
        self.order.insert((self.tick, key));
        Some(std::sync::Arc::clone(&entry.doc))
    }

    /// Holds `doc` under `key` as its most recent use.
    fn put(&mut self, key: CacheKey, doc: String) {
        self.tick += 1;
        let entry = Entry {
            doc: std::sync::Arc::new(doc),
            last_used: self.tick,
        };
        if let Some(old) = self.map.insert(key, entry) {
            self.order.remove(&(old.last_used, key));
        }
        self.order.insert((self.tick, key));
    }
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
                order: BTreeSet::new(),
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
                        state.put(key, doc);
                    }
                }
            }
        }
        Ok(cache)
    }

    /// Looks up `key`, bumping its LRU position. Counts a hit or miss.
    pub fn get(&self, key: CacheKey) -> Option<std::sync::Arc<String>> {
        let doc = self.state.lock().expect("cache poisoned").touch(key);
        if doc.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        doc
    }

    /// Like [`RunCache::get`] but without touching the hit/miss counters —
    /// for opportunistic double-checks (e.g. a queued job rechecking
    /// whether a concurrent connection already computed its key) that
    /// should not distort the observed hit rate.
    pub fn peek(&self, key: CacheKey) -> Option<std::sync::Arc<String>> {
        self.state.lock().expect("cache poisoned").touch(key)
    }

    /// Inserts `doc` under `key`, writing the disk file (best-effort,
    /// through a temporary file renamed into place) and evicting the
    /// least-recently-used entry beyond the cap. The victims' files are
    /// removed after the lock is released: an insert of the same key that
    /// races the removal can lose only its file, never serve a wrong
    /// document.
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
        let mut victims = Vec::new();
        {
            let mut st = self.state.lock().expect("cache poisoned");
            st.put(key, doc);
            self.insertions.fetch_add(1, Ordering::Relaxed);
            while st.map.len() > self.cap {
                let (_, victim) = st.order.pop_first().expect("nonempty over cap");
                st.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                victims.push(victim);
            }
        }
        for victim in victims {
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

    /// Today's eviction, kept as the reference: a scan of the whole map
    /// for the smallest `(last_used, key)`.
    #[derive(Default)]
    struct ScanLru {
        map: HashMap<CacheKey, (String, u64)>,
        tick: u64,
        stats: CacheStats,
    }

    impl ScanLru {
        fn touch(&mut self, key: CacheKey) -> Option<String> {
            self.tick += 1;
            let (doc, used) = self.map.get_mut(&key)?;
            *used = self.tick;
            Some(doc.clone())
        }

        fn get(&mut self, key: CacheKey) -> Option<String> {
            let doc = self.touch(key);
            if doc.is_some() {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
            doc
        }

        fn insert(&mut self, key: CacheKey, doc: String, cap: usize) {
            self.tick += 1;
            self.map.insert(key, (doc, self.tick));
            self.stats.insertions += 1;
            while self.map.len() > cap {
                let victim = *self
                    .map
                    .iter()
                    .min_by_key(|(k, (_, used))| (*used, **k))
                    .expect("nonempty over cap")
                    .0;
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
            self.stats.entries = self.map.len();
        }
    }

    #[derive(Debug, Clone)]
    enum LruOp {
        Get(u64),
        Peek(u64),
        Insert(u64, u32),
    }

    /// The ordered index evicts exactly the entries today's scan evicts,
    /// and the counters agree, under any mix of lookups and inserts.
    #[test]
    fn ordered_eviction_matches_the_scan() {
        use cohesion_testkit::prop::{one_of, range, vec_of, Runner, Strategy};
        let op = one_of(vec![
            range(0u64..12).map(LruOp::Get).boxed(),
            range(0u64..12).map(LruOp::Peek).boxed(),
            (range(0u64..12), range(0u32..4))
                .map(|(seed, v)| LruOp::Insert(seed, v))
                .boxed(),
        ]);
        Runner::new("ordered_eviction_matches_the_scan").run(
            &(vec_of(op, 1..200), range(1usize..6)),
            |(ops, cap)| {
                let cache = RunCache::in_memory(cap);
                let mut scan = ScanLru::default();
                for (step, op) in ops.into_iter().enumerate() {
                    let doc = |d: Option<std::sync::Arc<String>>| d.map(|d| d.to_string());
                    match op {
                        LruOp::Get(seed) => {
                            let key = CacheKey::for_request(&req(seed));
                            assert_eq!(doc(cache.get(key)), scan.get(key), "step {step}: {op:?}");
                        }
                        LruOp::Peek(seed) => {
                            let key = CacheKey::for_request(&req(seed));
                            assert_eq!(
                                doc(cache.peek(key)),
                                scan.touch(key),
                                "step {step}: {op:?}"
                            );
                        }
                        LruOp::Insert(seed, v) => {
                            let key = CacheKey::for_request(&req(seed));
                            cache.insert(key, format!("{seed}.{v}"));
                            scan.insert(key, format!("{seed}.{v}"), cap);
                        }
                    }
                    assert_eq!(cache.stats(), scan.stats, "step {step}: stats");
                    let st = cache.state.lock().unwrap();
                    let mut held: Vec<_> = st.map.iter().map(|(k, e)| (e.last_used, *k)).collect();
                    held.sort_unstable();
                    let mut want: Vec<_> =
                        scan.map.iter().map(|(k, (_, used))| (*used, *k)).collect();
                    want.sort_unstable();
                    assert_eq!(held, want, "step {step}: resident entries");
                    assert!(
                        st.order.iter().eq(held.iter()),
                        "step {step}: index out of step"
                    );
                }
            },
        );
    }

    #[test]
    fn evicted_files_leave_the_disk() {
        let dir = test_dir("evict");
        let c = RunCache::at_dir(dir.clone(), 2).unwrap();
        let keys: Vec<_> = (1..=4).map(|s| CacheKey::for_request(&req(s))).collect();
        for (i, &k) in keys.iter().enumerate() {
            c.insert(k, format!("doc-{i}"));
        }
        let on_disk: Vec<bool> = keys
            .iter()
            .map(|&k| c.path_of(k).unwrap().is_file())
            .collect();
        assert_eq!(on_disk, [false, false, true, true]);
        assert_eq!(c.stats().evictions, 2);
        let _ = std::fs::remove_dir_all(&dir);
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

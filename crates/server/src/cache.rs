//! LRU cache of shared query engines, keyed by pool provenance, with an
//! optional persistent [`PoolStore`] behind it.
//!
//! A serving process sees a *mix* of query configurations: most clients
//! use the deployment defaults, a few ask for a tighter ε or a different
//! ℓ. Each distinct `(graph checksum, model, seed, ε, ℓ)` tuple is its
//! own pool provenance (exactly what `.timp` files pin), so the cache
//! maps that tuple to an [`Arc<SharedEngine>`] — reusing warm pools across
//! connections and lazily building cold ones.
//!
//! With a store attached ([`PoolCache::with_store`]) the cache is
//! **read-through and write-through**: a miss probes the store before
//! sampling (cold miss → disk probe → build only on a true miss), a
//! fresh build is spilled back to disk, and eviction spills a pool that
//! grew since its last spill instead of destroying the work. Warm state
//! thereby survives both eviction and process restarts. With
//! `mmap_pools` on, v2 spills restore as verified zero-copy mappings
//! ([`tim_engine::PoolMmap`]) instead of heap decodes — same answers,
//! no per-restore allocation or index rebuild.
//!
//! Two locking properties matter for serving:
//!
//! - The cache's own mutex is held only for map bookkeeping (lookup,
//!   LRU bump, eviction) — never while sampling or touching disk. A cold
//!   miss resolves on an entry-local [`OnceLock`], so concurrent requests
//!   for the *same* cold key probe/build once (the rest block on that
//!   entry only), and requests for *other* keys are never blocked.
//! - Eviction drops the cache's reference; connections already holding
//!   the `Arc` keep answering against the evicted pool until they finish.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tim_diffusion::BackingModel;
use tim_engine::{PoolId, PoolStore, ProbedPool, SharedEngine};

/// Pool-cache key: the full provenance a pool depends on — exactly the
/// tuple a [`PoolStore`] keys files by, so the cache key *is* the store
/// id (one type, no conversion, impossible to desynchronize). Float
/// parameters are keyed by their exact bit patterns (the same convention
/// `.timp` provenance headers and the engine's plan cache use).
pub type PoolKey = PoolId;

/// Cache effectiveness counters (monotone since construction). The
/// warm-restart claim is checked against these: a restart that serves a
/// previously seen query mix from a pool store shows `loads > 0` and
/// `builds == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an in-memory entry (possibly still resolving).
    pub hits: u64,
    /// Lookups that found no in-memory entry.
    pub misses: u64,
    /// Misses resolved by sampling a pool from scratch (true cold).
    pub builds: u64,
    /// Misses resolved by loading a pool from the store (warm restart /
    /// post-eviction path).
    pub loads: u64,
    /// Pools written (back) to the store — write-through on build,
    /// eviction of a grown pool, or an explicit persist.
    pub spills: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
}

struct Entry<M> {
    engine: OnceLock<Arc<SharedEngine<M>>>,
}

struct Slot<M> {
    last_used: u64,
    entry: Arc<Entry<M>>,
    /// The engine's growth epoch at the last spill into the store;
    /// `None` = this cache never spilled it. A larger current epoch
    /// means the on-disk file is stale.
    spilled_epoch: Option<u64>,
}

struct Inner<M> {
    tick: u64,
    entries: HashMap<PoolKey, Slot<M>>,
    evictions: u64,
}

/// An evicted engine, carried out of the lock so its farewell spill (if
/// it grew) happens without blocking the cache.
struct Evicted<M> {
    engine: Option<Arc<SharedEngine<M>>>,
    spilled_epoch: Option<u64>,
}

/// An LRU cache of [`SharedEngine`]s keyed by [`PoolKey`], optionally
/// backed by a persistent [`PoolStore`]; see the module docs for the
/// locking and write-through contracts.
pub struct PoolCache<M> {
    capacity: usize,
    store: Option<Arc<PoolStore>>,
    /// Automatic write-back (spill on build / eviction / sync) enabled.
    /// [`spill_dirty`](Self::spill_dirty) works regardless — it is the
    /// explicit-persist path.
    persist: bool,
    /// Restore v2 spills as zero-copy mappings ([`ProbedPool::Mapped`])
    /// instead of heap decodes. Mapped restores are checksum-verified
    /// here, before the pool can serve — a corrupt file is quarantined
    /// and the miss falls through to a build, exactly like a failed
    /// heap decode.
    mmap_pools: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    loads: AtomicU64,
    spills: AtomicU64,
    /// Serializes the whole read-epoch → snapshot → write → record
    /// sequence of a spill. Without it, two concurrent spills of one key
    /// could publish the *older* snapshot last while the slot records
    /// the *newer* epoch as clean — permanently losing the growth on
    /// disk. Spills are rare (build, growth flush, eviction, persist),
    /// so one cache-wide mutex is fine; it is never held while the map
    /// mutex is wanted.
    spill_lock: Mutex<()>,
    inner: Mutex<Inner<M>>,
}

impl<M> std::fmt::Debug for PoolCache<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self.inner.lock().map(|i| i.entries.len());
        f.debug_struct("PoolCache")
            .field("capacity", &self.capacity)
            .field("len", &len.unwrap_or(0))
            .field(
                "store",
                &self.store.as_ref().map(|s| s.root().to_path_buf()),
            )
            .field("persist", &self.persist)
            .finish()
    }
}

const POISONED: &str = "pool cache mutex poisoned";

impl<M: BackingModel + Clone> PoolCache<M> {
    /// Creates an empty in-memory cache holding at most `capacity`
    /// engines (no persistent store: eviction discards, restarts rebuild).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "pool cache capacity must be at least 1");
        PoolCache {
            capacity,
            store: None,
            persist: false,
            mmap_pools: false,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            spill_lock: Mutex::new(()),
            inner: Mutex::new(Inner {
                tick: 0,
                entries: HashMap::new(),
                evictions: 0,
            }),
        }
    }

    /// Creates a cache backed by a persistent store. Misses probe the
    /// store before building. `persist` enables automatic write-back
    /// (spill on build, on eviction of a grown pool, and on
    /// [`spill_dirty`](Self::spill_dirty) sync); without it the store is
    /// read-only until an explicit [`spill_dirty`](Self::spill_dirty).
    /// `mmap_pools` restores v2 spills as verified zero-copy mappings
    /// instead of heap decodes (v1 files fall back to the heap
    /// transparently); answers are byte-identical either way.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_store(
        capacity: usize,
        store: Arc<PoolStore>,
        persist: bool,
        mmap_pools: bool,
    ) -> Self {
        let mut cache = Self::new(capacity);
        cache.store = Some(store);
        cache.persist = persist;
        cache.mmap_pools = mmap_pools;
        cache
    }

    /// The persistent store behind this cache, if any.
    pub fn store(&self) -> Option<&Arc<PoolStore>> {
        self.store.as_ref()
    }

    /// Looks up `key`, resolving a miss by store probe first
    /// (`restore` attaches a loaded [`ProbedPool`] — heap-decoded or
    /// zero-copy mapped — to the caller's graph; a restore failure
    /// quarantines the file) and samples from scratch with `build` only
    /// on a true miss. Resolution runs without the cache lock;
    /// concurrent callers of the same cold key share one probe/build.
    pub fn get_or_load(
        &self,
        key: &PoolKey,
        restore: impl FnOnce(ProbedPool) -> Result<SharedEngine<M>, String>,
        build: impl FnOnce() -> SharedEngine<M>,
    ) -> Arc<SharedEngine<M>> {
        let (entry, evicted) = self.lookup(key);
        if let Some(evicted) = evicted {
            self.farewell_spill(evicted);
        }
        let mut resolved_fresh = false;
        let mut loaded = false;
        let engine = Arc::clone(entry.engine.get_or_init(|| {
            resolved_fresh = true;
            if let Some(pool) = self.store_probe(key) {
                match restore(pool) {
                    Ok(engine) => {
                        loaded = true;
                        self.loads.fetch_add(1, Ordering::Relaxed);
                        return Arc::new(engine);
                    }
                    Err(e) => {
                        // The file matched its name but not the served
                        // graph/config — foreign state; get it out of
                        // the store and rebuild.
                        if let Some(store) = &self.store {
                            store.quarantine_id(key, &e);
                        }
                    }
                }
            }
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(build())
        }));
        if resolved_fresh && self.store.is_some() {
            if loaded {
                // The on-disk file equals the pool as restored, i.e. at
                // growth epoch 0 (a freshly constructed engine). Record
                // exactly 0 — reading the *current* epoch here would let
                // growth racing between the restore and this line be
                // marked clean and never written back.
                self.note_spilled(key, &entry, 0);
            } else if self.persist {
                // Write-through: a freshly sampled pool is warm state
                // worth keeping; spill before anyone can lose it.
                self.spill_entry(key, &entry, &engine);
            }
        }
        engine
    }

    /// [`get_or_load`](Self::get_or_load) without a restore path: misses
    /// build directly, skipping any store probe. For callers that cannot
    /// attach persisted pools (tests, store-less deployments).
    pub fn get_or_build(
        &self,
        key: &PoolKey,
        build: impl FnOnce() -> SharedEngine<M>,
    ) -> Arc<SharedEngine<M>> {
        let (entry, evicted) = self.lookup(key);
        if let Some(evicted) = evicted {
            self.farewell_spill(evicted);
        }
        let engine = Arc::clone(entry.engine.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(build())
        }));
        engine
    }

    /// Map bookkeeping for a lookup: bump/insert the slot, count the
    /// hit/miss, pick an eviction victim when over capacity. Holds the
    /// cache lock only for this.
    fn lookup(&self, key: &PoolKey) -> (Arc<Entry<M>>, Option<Evicted<M>>) {
        let mut inner = self.inner.lock().expect(POISONED);
        inner.tick += 1;
        let tick = inner.tick;
        if inner.entries.contains_key(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let slot = inner.entries.get_mut(key).expect("entry just checked");
            slot.last_used = tick;
            return (Arc::clone(&slot.entry), None);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let evicted = if inner.entries.len() >= self.capacity {
            Self::evict_lru(&mut inner)
        } else {
            None
        };
        let entry = Arc::new(Entry {
            engine: OnceLock::new(),
        });
        inner.entries.insert(
            key.clone(),
            Slot {
                last_used: tick,
                entry: Arc::clone(&entry),
                spilled_epoch: None,
            },
        );
        (entry, evicted)
    }

    fn store_probe(&self, key: &PoolKey) -> Option<ProbedPool> {
        let store = self.store.as_ref()?;
        let found = match store.probe_backed(key, self.mmap_pools) {
            Ok(found) => found?,
            Err(e) => {
                // IO trouble (permissions, disk): serving must not die —
                // fall through to a build, like a store-less cache.
                eprintln!(
                    "pool store: probe failed in {} ({e}); rebuilding",
                    store.root().display()
                );
                return None;
            }
        };
        if let ProbedPool::Mapped(mapped) = &found {
            // Mapping defers the section checksums; pay them here, once,
            // before the pool can serve. The scan is sequential (and
            // prefaults the pages selection will touch) — it replaces
            // v1's read-everything + decode + index rebuild, not adds
            // to it. A mismatch is corruption: quarantine and rebuild.
            if let Err(e) = store.verify_mapped(mapped) {
                store.quarantine_id(key, &e.to_string());
                return None;
            }
        }
        Some(found)
    }

    /// Spills `engine`'s pool and records the spilled epoch on the slot.
    /// Returns whether this call wrote the pool to the store — callers
    /// reporting persistence (the `persist` verb) must not claim success
    /// on a failed write, nor count a pool another spill already wrote.
    fn spill_entry(
        &self,
        key: &PoolKey,
        entry: &Arc<Entry<M>>,
        engine: &Arc<SharedEngine<M>>,
    ) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        // One spill at a time: epoch-read, snapshot, disk write, and the
        // epoch record must not interleave with another spill of the
        // same key, or the older snapshot could land on disk last while
        // the newer epoch is recorded as clean.
        let _serialized = self.spill_lock.lock().expect(POISONED);
        // Read the epoch BEFORE snapshotting: growth that races with the
        // snapshot stays "dirty" and re-spills later, never the reverse.
        let epoch = engine.growth_epoch();
        // Re-check under the lock: a spill of this epoch may have finished
        // while we waited (a sync that raced a cold build's write-through
        // read the slot before the build recorded its spill).
        if self.spilled_epoch(key, entry).is_some_and(|s| s >= epoch) {
            return false;
        }
        match store.spill(&engine.to_pool()) {
            Ok(_) => {
                self.spills.fetch_add(1, Ordering::Relaxed);
                self.note_spilled(key, entry, epoch);
                true
            }
            Err(e) => {
                eprintln!(
                    "pool store: spill failed in {} ({e}); pool stays in memory only",
                    store.root().display()
                );
                false
            }
        }
    }

    /// The slot's spilled epoch, if the slot still holds this entry.
    fn spilled_epoch(&self, key: &PoolKey, entry: &Arc<Entry<M>>) -> Option<u64> {
        let inner = self.inner.lock().expect(POISONED);
        inner
            .entries
            .get(key)
            .filter(|slot| Arc::ptr_eq(&slot.entry, entry))
            .and_then(|slot| slot.spilled_epoch)
    }

    /// Records that the on-disk file equals the pool at `epoch`, if the
    /// slot still holds this entry (it may have been evicted meanwhile).
    fn note_spilled(&self, key: &PoolKey, entry: &Arc<Entry<M>>, epoch: u64) {
        let mut inner = self.inner.lock().expect(POISONED);
        if let Some(slot) = inner.entries.get_mut(key) {
            if Arc::ptr_eq(&slot.entry, entry) {
                slot.spilled_epoch = Some(slot.spilled_epoch.map_or(epoch, |s| s.max(epoch)));
            }
        }
    }

    /// Spills an evicted engine whose pool grew since its last spill —
    /// eviction must not destroy warm state. Runs outside the cache lock.
    fn farewell_spill(&self, evicted: Evicted<M>) {
        if !self.persist {
            return;
        }
        let Some(store) = &self.store else { return };
        let Some(engine) = evicted.engine else { return };
        // Same serialization as spill_entry: the farewell snapshot must
        // not land on disk after a newer spill of the same provenance.
        let _serialized = self.spill_lock.lock().expect(POISONED);
        let epoch = engine.growth_epoch();
        if evicted.spilled_epoch.is_some_and(|s| s >= epoch) {
            return; // on-disk copy is current
        }
        match store.spill(&engine.to_pool()) {
            Ok(_) => {
                self.spills.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!(
                "pool store: eviction spill failed in {} ({e}); work lost on restart",
                store.root().display()
            ),
        }
    }

    /// Pre-seeds the cache (e.g. with an engine restored from a `.timp`
    /// file at startup), evicting the LRU entry if the cache is full.
    /// Replaces any existing entry for the key.
    pub fn insert(&self, key: PoolKey, engine: SharedEngine<M>) -> Arc<SharedEngine<M>> {
        let shared = Arc::new(engine);
        let entry = Entry {
            engine: OnceLock::new(),
        };
        entry
            .engine
            .set(Arc::clone(&shared))
            .ok()
            .expect("fresh OnceLock");
        let evicted = {
            let mut inner = self.inner.lock().expect(POISONED);
            inner.tick += 1;
            let tick = inner.tick;
            let evicted =
                if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
                    Self::evict_lru(&mut inner)
                } else {
                    None
                };
            inner.entries.insert(
                key,
                Slot {
                    last_used: tick,
                    entry: Arc::new(entry),
                    spilled_epoch: None,
                },
            );
            evicted
        };
        if let Some(evicted) = evicted {
            self.farewell_spill(evicted);
        }
        shared
    }

    /// Spills every resolved pool whose on-disk copy is absent or stale
    /// into the store, returning how many were written. This is the
    /// explicit-persist path (the `persist` admin verb, session sync,
    /// graceful shutdown): it works even when automatic write-back is
    /// off. A no-op (0) without a store.
    pub fn spill_dirty(&self) -> usize {
        if self.store.is_none() {
            return 0;
        }
        let snapshot: Vec<(PoolKey, Arc<Entry<M>>, Option<u64>)> = {
            let inner = self.inner.lock().expect(POISONED);
            inner
                .entries
                .iter()
                .map(|(k, s)| (k.clone(), Arc::clone(&s.entry), s.spilled_epoch))
                .collect()
        };
        let mut written = 0;
        for (key, entry, spilled) in snapshot {
            let Some(engine) = entry.engine.get() else {
                continue; // still resolving; its own path will spill it
            };
            let epoch = engine.growth_epoch();
            if spilled.is_some_and(|s| s >= epoch) {
                continue;
            }
            if self.spill_entry(&key, &entry, engine) {
                written += 1;
            }
        }
        written
    }

    fn evict_lru(inner: &mut Inner<M>) -> Option<Evicted<M>> {
        let oldest = inner
            .entries
            .iter()
            .min_by_key(|(_, s)| s.last_used)
            .map(|(k, _)| k.clone())?;
        let slot = inner.entries.remove(&oldest)?;
        inner.evictions += 1;
        Some(Evicted {
            engine: slot.entry.engine.get().cloned(),
            spilled_epoch: slot.spilled_epoch,
        })
    }

    /// True when `key` currently has an entry (does not touch LRU order).
    pub fn contains(&self, key: &PoolKey) -> bool {
        self.inner.lock().expect(POISONED).entries.contains_key(key)
    }

    /// Number of cached entries (including ones still resolving).
    pub fn len(&self) -> usize {
        self.inner.lock().expect(POISONED).entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            evictions: self.inner.lock().expect(POISONED).evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use tim_diffusion::IndependentCascade;
    use tim_engine::QueryEngine;
    use tim_graph::snapshot::graph_checksum;
    use tim_graph::{gen, weights, Graph};

    fn graph() -> Arc<Graph> {
        let mut g = gen::barabasi_albert(120, 3, 0.0, 1);
        weights::assign_weighted_cascade(&mut g);
        Arc::new(g)
    }

    fn key(eps: f64) -> PoolKey {
        PoolKey::new(7, "ic", 0, eps, 1.0)
    }

    /// A provenance-true key for `g` at `eps` — required by store-backed
    /// tests, where the spilled file must match what restore validates.
    fn true_key(g: &Arc<Graph>, eps: f64) -> PoolKey {
        PoolKey::new(graph_checksum(g), "ic", 0, eps, 1.0)
    }

    fn cheap_engine(g: &Arc<Graph>, eps: f64) -> SharedEngine<IndependentCascade> {
        let mut engine = QueryEngine::new(Arc::clone(g), IndependentCascade, "ic")
            .epsilon(eps)
            .threads(1)
            .k_max(2);
        engine.warm();
        SharedEngine::new(engine)
    }

    fn restore(
        g: &Arc<Graph>,
        pool: ProbedPool,
    ) -> Result<SharedEngine<IndependentCascade>, String> {
        match pool {
            ProbedPool::Heap(pool) => {
                QueryEngine::from_pool(Arc::clone(g), IndependentCascade, "ic", pool)
            }
            ProbedPool::Mapped(mapped) => QueryEngine::from_mapped_pool(
                tim_graph::GraphStore::from_arc(Arc::clone(g)),
                IndependentCascade,
                "ic",
                mapped,
            ),
        }
        .map(SharedEngine::new)
        .map_err(|e| e.to_string())
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, Arc<PoolStore>) {
        let dir =
            std::env::temp_dir().join(format!("tim_cache_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        (dir.clone(), Arc::new(PoolStore::open(dir).unwrap()))
    }

    #[test]
    fn key_round_trips_floats_bit_exactly() {
        let k = key(0.1);
        assert_eq!(k.epsilon(), 0.1);
        assert_eq!(k.ell(), 1.0);
        assert_ne!(key(0.1), key(0.1 + f64::EPSILON));
        // PoolKey IS the store id — same type, no conversion.
        let id: PoolId = k;
        assert_eq!(id.epsilon(), 0.1);
        assert_eq!(id.model, "ic");
    }

    #[test]
    fn hit_returns_the_same_engine_and_counts() {
        let g = graph();
        let cache = PoolCache::new(2);
        let built = AtomicUsize::new(0);
        let a = cache.get_or_build(&key(1.0), || {
            built.fetch_add(1, Ordering::SeqCst);
            cheap_engine(&g, 1.0)
        });
        let b = cache.get_or_build(&key(1.0), || {
            built.fetch_add(1, Ordering::SeqCst);
            cheap_engine(&g, 1.0)
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(built.load(Ordering::SeqCst), 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                builds: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn lru_entry_is_evicted_and_rebuilt_on_return() {
        let g = graph();
        let cache = PoolCache::new(2);
        let build = |eps: f64| cheap_engine(&g, eps);
        let first = cache.get_or_build(&key(1.0), || build(1.0));
        cache.get_or_build(&key(0.9), || build(0.9));
        // Touch 1.0 so 0.9 becomes the LRU victim.
        cache.get_or_build(&key(1.0), || build(1.0));
        cache.get_or_build(&key(0.8), || build(0.8));
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&key(1.0)));
        assert!(!cache.contains(&key(0.9)));
        assert!(cache.contains(&key(0.8)));
        assert_eq!(cache.stats().evictions, 1);

        // The surviving key still serves the original engine…
        let again = cache.get_or_build(&key(1.0), || build(1.0));
        assert!(Arc::ptr_eq(&first, &again));
        // …and the evicted key is a cold miss again.
        let miss_before = cache.stats().misses;
        cache.get_or_build(&key(0.9), || build(0.9));
        assert_eq!(cache.stats().misses, miss_before + 1);
    }

    #[test]
    fn concurrent_cold_misses_build_once() {
        let g = graph();
        let cache = Arc::new(PoolCache::new(2));
        let built = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (cache, built, g) = (Arc::clone(&cache), Arc::clone(&built), Arc::clone(&g));
                std::thread::spawn(move || {
                    let e = cache.get_or_build(&key(1.0), || {
                        built.fetch_add(1, Ordering::SeqCst);
                        // Make the build window wide enough to overlap.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        cheap_engine(&g, 1.0)
                    });
                    e.pool_theta()
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(built.load(Ordering::SeqCst), 1, "exactly one build");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_preseeds_and_replaces() {
        let g = graph();
        let cache = PoolCache::new(1);
        cache.insert(key(1.0), cheap_engine(&g, 1.0));
        assert_eq!(cache.len(), 1);
        let built = AtomicUsize::new(0);
        let e = cache.get_or_build(&key(1.0), || {
            built.fetch_add(1, Ordering::SeqCst);
            cheap_engine(&g, 1.0)
        });
        assert_eq!(built.load(Ordering::SeqCst), 0, "pre-seeded entry serves");
        assert_eq!(e.warmed_k(), 2);
        // Inserting a different key in a full cache evicts the LRU.
        cache.insert(key(0.5), cheap_engine(&g, 0.5));
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&key(0.5)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn store_backed_miss_builds_spills_then_restores() {
        let g = graph();
        let (dir, store) = tmp_store("roundtrip");
        let k = true_key(&g, 1.0);

        // First process: true miss → build → write-through spill.
        let cache = PoolCache::with_store(2, Arc::clone(&store), true, false);
        let want = cache
            .get_or_load(&k, |p| restore(&g, p), || cheap_engine(&g, 1.0))
            .select(2)
            .seeds;
        let s = cache.stats();
        assert_eq!((s.builds, s.loads, s.spills), (1, 0, 1));
        assert_eq!(store.len(), 1, "pool on disk");

        // Second process (fresh cache, same store): disk hit, no build.
        let cache2 = PoolCache::with_store(2, Arc::clone(&store), true, false);
        let built = AtomicUsize::new(0);
        let got = cache2
            .get_or_load(
                &k,
                |p| restore(&g, p),
                || {
                    built.fetch_add(1, Ordering::SeqCst);
                    cheap_engine(&g, 1.0)
                },
            )
            .select(2)
            .seeds;
        assert_eq!(built.load(Ordering::SeqCst), 0, "zero rebuilds");
        assert_eq!(got, want, "restored pool answers byte-identically");
        let s = cache2.stats();
        assert_eq!((s.builds, s.loads, s.spills), (0, 1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mmap_restore_serves_mapped_verified_and_identical() {
        let g = graph();
        let (dir, store) = tmp_store("mmap");
        let k = true_key(&g, 1.0);

        // First process: build + write-through (spills are v2 by default).
        let cache = PoolCache::with_store(2, Arc::clone(&store), true, false);
        let want = cache
            .get_or_load(&k, |p| restore(&g, p), || cheap_engine(&g, 1.0))
            .select(2)
            .seeds;

        // Second process with mmap_pools on: zero-copy restore, verified,
        // no rebuild, identical answers.
        let cache2 = PoolCache::with_store(2, Arc::clone(&store), true, true);
        let built = AtomicUsize::new(0);
        let engine = cache2.get_or_load(
            &k,
            |p| {
                assert!(matches!(p, ProbedPool::Mapped(_)), "v2 spill must map");
                restore(&g, p)
            },
            || {
                built.fetch_add(1, Ordering::SeqCst);
                cheap_engine(&g, 1.0)
            },
        );
        assert_eq!(built.load(Ordering::SeqCst), 0, "zero rebuilds");
        assert_eq!(engine.select(2).seeds, want, "mapped answers identically");
        let s = store.stats();
        assert_eq!((s.mmap_opens, s.verifies, s.heap_loads), (1, 1, 0));
        assert_eq!(cache2.stats().loads, 1);

        // Growth falls back to the heap and re-dirties the slot; the
        // explicit persist spills the grown pool as a fresh v2 file.
        engine.select_with(2, Some(0.3), None);
        assert_eq!(cache2.spill_dirty(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_spills_grown_pools_and_skips_clean_ones() {
        let g = graph();
        let (dir, store) = tmp_store("evict");
        let cache = PoolCache::with_store(1, Arc::clone(&store), true, false);
        let k1 = true_key(&g, 1.0);
        let e = cache.get_or_load(&k1, |p| restore(&g, p), || cheap_engine(&g, 1.0));
        assert_eq!(cache.stats().spills, 1, "write-through at build");
        // Grow the pool past what was spilled.
        assert!(e.select_with(2, Some(0.3), None).resampled);
        assert_eq!(e.growth_epoch(), 1);
        let theta_grown = e.pool_theta();

        // A second key evicts the first → farewell spill of the growth.
        cache.get_or_load(
            &true_key(&g, 0.9),
            |p| restore(&g, p),
            || cheap_engine(&g, 0.9),
        );
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().spills, 3, "build spill ×2 + farewell spill");
        let reloaded = store.probe(&k1).unwrap().expect("still stored");
        assert_eq!(reloaded.meta.theta, theta_grown, "growth preserved");

        // Evicting the (clean, just-spilled) second entry writes nothing.
        let spills_before = cache.stats().spills;
        cache.get_or_load(&k1, |p| restore(&g, p), || cheap_engine(&g, 1.0));
        assert_eq!(cache.stats().loads, 1, "evicted pool restored from disk");
        assert_eq!(
            cache.stats().spills,
            spills_before,
            "clean eviction is free"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_dirty_persists_growth_even_without_auto_writeback() {
        let g = graph();
        let (dir, store) = tmp_store("dirty");
        // persist = false: the store is read-only until an explicit call.
        let cache = PoolCache::with_store(2, Arc::clone(&store), false, false);
        let k = true_key(&g, 1.0);
        let e = cache.get_or_load(&k, |p| restore(&g, p), || cheap_engine(&g, 1.0));
        assert_eq!(cache.stats().spills, 0, "no automatic write-back");
        assert!(store.is_empty());

        assert_eq!(cache.spill_dirty(), 1, "explicit persist writes it");
        assert_eq!(store.len(), 1);
        assert_eq!(cache.spill_dirty(), 0, "already clean");
        // Growth re-dirties it.
        e.select_with(2, Some(0.3), None);
        assert_eq!(cache.spill_dirty(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_stored_pool_falls_back_to_a_build() {
        let g = graph();
        let (dir, store) = tmp_store("fallback");
        let k = true_key(&g, 1.0);
        {
            let cache = PoolCache::with_store(2, Arc::clone(&store), true, false);
            cache.get_or_load(&k, |p| restore(&g, p), || cheap_engine(&g, 1.0));
        }
        // Corrupt the stored file.
        let path = store.path_for(&k);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();

        let cache2 = PoolCache::with_store(2, Arc::clone(&store), true, false);
        let built = AtomicUsize::new(0);
        cache2.get_or_load(
            &k,
            |p| restore(&g, p),
            || {
                built.fetch_add(1, Ordering::SeqCst);
                cheap_engine(&g, 1.0)
            },
        );
        assert_eq!(built.load(Ordering::SeqCst), 1, "corrupt file → rebuild");
        assert_eq!(store.stats().quarantined, 1);
        assert_eq!(cache2.stats().loads, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pool_from_an_older_selection_sampler_is_quarantined_and_rebuilt() {
        let g = graph();
        let k = true_key(&g, 1.0);
        // The selection seed as the per-edge sampler (revision 1) derived
        // it: drawn after the KPT and refinement streams split off, unsalted.
        let old_select_seed = {
            use tim_rng::{RandomSource, Rng};
            let mut base = Rng::seed_from_u64(k.seed);
            let _kpt = base.split_off();
            let _refine = base.split_off();
            base.next_u64()
        };
        assert_ne!(old_select_seed, tim_core::select_stream_seed(k.seed));
        for (tag, v2, mmap_pools) in [
            ("stale_v1", false, false),
            ("stale_v2_heap", true, false),
            ("stale_v2_mapped", true, true),
        ] {
            let (dir, store) = tmp_store(tag);
            let mut stale = cheap_engine(&g, 1.0).to_pool();
            stale.meta.select_seed = old_select_seed;
            let path = store.path_for(&k);
            if v2 {
                stale.save_v2(&path).unwrap();
            } else {
                stale.save(&path).unwrap();
            }

            let cache = PoolCache::with_store(2, Arc::clone(&store), true, mmap_pools);
            cache.get_or_load(&k, |p| restore(&g, p), || cheap_engine(&g, 1.0));
            let s = cache.stats();
            assert_eq!((s.builds, s.loads), (1, 0), "{tag}: refused, rebuilt");
            assert_eq!(store.stats().quarantined, 1, "{tag}");
            // The rebuild was written back under the current derivation.
            let fresh = store.probe(&k).unwrap().expect("rebuilt pool spilled");
            assert_eq!(fresh.meta.select_seed, tim_core::select_stream_seed(k.seed));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_sync_queued_behind_a_cold_builds_write_through_does_not_respill() {
        let g = graph();
        let (dir, store) = tmp_store("spill_race");
        let cache = PoolCache::with_store(2, Arc::clone(&store), true, false);
        let k = true_key(&g, 1.0);
        let engine = cache.get_or_load(&k, |p| restore(&g, p), || cheap_engine(&g, 1.0));
        assert_eq!(cache.stats().spills, 1, "write-through at build");

        // A `spill_dirty` racing the build read this slot as never spilled
        // (before the write-through recorded its epoch), then queued on
        // the spill lock. Replay what it does once the lock frees up:
        // spill the entry it read as dirty.
        let entry = Arc::clone(&cache.inner.lock().unwrap().entries[&k].entry);
        assert!(!cache.spill_entry(&k, &entry, &engine));
        assert_eq!(cache.stats().spills, 1, "one write of one pool epoch");

        // Growth re-dirties the pool, and the same call writes it.
        engine.select_with(2, Some(0.3), None);
        assert!(cache.spill_entry(&k, &entry, &engine));
        assert_eq!(cache.stats().spills, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = PoolCache::<IndependentCascade>::new(0);
    }
}

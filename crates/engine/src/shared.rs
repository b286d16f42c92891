//! Concurrent, shareable access to a [`QueryEngine`].
//!
//! A [`QueryEngine`] answers queries through `&mut self` because some of
//! them *may* mutate: a plan-cache miss replays the (cheap) estimation
//! phases, and a θ shortfall resamples the pool. But on a warm engine the
//! overwhelmingly common case is a pure read — carve a prefix of the
//! immutable pool and run greedy over the shared inverted index.
//!
//! [`SharedEngine`] turns that split into a concurrency story: every query
//! first tries the engine's read-only `try_*` path under an [`RwLock`]
//! read guard (many threads in parallel), and only on a miss upgrades to
//! the write lock to compute plans or grow the pool. Growth is monotone
//! and the sampling stream fixed, so the handoff never changes any
//! answer: an exact-replay `select` returns byte-identical seeds no matter
//! how many threads interleave with it (see `tim_server`'s concurrent
//! determinism test).

use crate::engine::{QueryEngine, QueryOutcome};
use crate::error::EngineError;
use crate::pool::RrPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use tim_diffusion::BackingModel;
use tim_graph::NodeId;

/// A [`QueryEngine`] behind an [`RwLock`] with a read-mostly fast path.
///
/// Cheap to share (`Arc<SharedEngine<M>>`); all query methods take
/// `&self`. Lock poisoning (a panic inside a write section) is treated as
/// fatal — the engine's invariants can no longer be trusted — and
/// propagates as a panic to every later caller.
///
/// ```
/// use std::sync::Arc;
/// use tim_diffusion::IndependentCascade;
/// use tim_engine::{QueryEngine, SharedEngine};
/// use tim_graph::{gen, weights};
///
/// let mut g = gen::barabasi_albert(200, 4, 0.1, 1);
/// weights::assign_weighted_cascade(&mut g);
/// let mut engine = QueryEngine::new(g, IndependentCascade, "ic")
///     .epsilon(1.0)
///     .seed(7)
///     .k_max(4);
/// engine.warm().unwrap();
/// let shared = Arc::new(SharedEngine::new(engine));
/// let want = shared.select(3).seeds;
///
/// let workers: Vec<_> = (0..2)
///     .map(|_| {
///         let shared = Arc::clone(&shared);
///         std::thread::spawn(move || shared.select(3).seeds)
///     })
///     .collect();
/// for w in workers {
///     assert_eq!(w.join().unwrap(), want);
/// }
/// ```
#[derive(Debug)]
pub struct SharedEngine<M> {
    inner: RwLock<QueryEngine<M>>,
    /// Bumped every time the pool grows through this wrapper — the
    /// growth hook persistence layers ([`crate::PoolStore`] callers)
    /// compare against their last-spilled epoch to decide whether a
    /// pool has new work worth writing back to disk.
    growth: AtomicU64,
}

/// Panic message used when a previous writer panicked mid-update.
const POISONED: &str = "engine lock poisoned: a writer panicked mid-update";

impl<M: BackingModel + Clone> SharedEngine<M> {
    /// Wraps an engine for shared use. Warm it first
    /// ([`QueryEngine::warm`]) if the first queries should not pay the
    /// sampling cost under the write lock.
    pub fn new(engine: QueryEngine<M>) -> Self {
        SharedEngine {
            inner: RwLock::new(engine),
            growth: AtomicU64::new(0),
        }
    }

    /// Runs a blocking (write-lock) engine call and bumps the growth
    /// epoch if the pool grew under it — the single funnel every mutable
    /// query path goes through.
    fn with_growth<T>(&self, f: impl FnOnce(&mut QueryEngine<M>) -> T) -> T {
        let mut guard = self.inner.write().expect(POISONED);
        let before = guard.pool_theta();
        let out = f(&mut guard);
        if guard.pool_theta() > before {
            self.growth.fetch_add(1, Ordering::Release);
        }
        out
    }

    /// How many times the pool has grown (resampled) through this
    /// wrapper since construction. Persistence layers record the epoch
    /// at spill time; a later, larger epoch means the stored file is
    /// stale and the pool is worth spilling again. Monotone; `0` means
    /// the pool is exactly what the engine was constructed with.
    pub fn growth_epoch(&self) -> u64 {
        self.growth.load(Ordering::Acquire)
    }

    /// [`QueryEngine::select`] — read lock when the plan is cached and the
    /// pool suffices, write lock otherwise.
    ///
    /// # Panics
    /// Panics if `k == 0`, or where [`select_with`](Self::select_with)
    /// would fail.
    pub fn select(&self, k: usize) -> QueryOutcome {
        self.select_with(k, None, None)
            .unwrap_or_else(|e| panic!("select: {e}"))
    }

    /// [`QueryEngine::select_with`] with the same read-fast-path /
    /// write-upgrade split as [`select`](Self::select).
    pub fn select_with(
        &self,
        k: usize,
        eps: Option<f64>,
        ell: Option<f64>,
    ) -> Result<QueryOutcome, EngineError> {
        self.read_then_write(
            |e| e.try_select_with(k, eps, ell),
            |e| e.select_with(k, eps, ell),
        )
    }

    /// [`QueryEngine::select_fast`] with the read-fast-path split.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn select_fast(&self, k: usize) -> Result<QueryOutcome, EngineError> {
        self.read_then_write(|e| e.try_select_fast(k), |e| e.select_fast(k))
    }

    /// [`QueryEngine::spread`] — read lock on a warm pool, write lock
    /// (warming it) on a cold one.
    ///
    /// # Panics
    /// Panics if any seed is outside the graph's node range.
    pub fn spread(&self, seeds: &[NodeId]) -> Result<f64, EngineError> {
        self.read_then_write(|e| e.try_spread(seeds), |e| e.spread(seeds))
    }

    /// [`QueryEngine::marginal_gain`] with the read-fast-path split.
    pub fn marginal_gain(&self, base: &[NodeId], candidate: NodeId) -> Result<f64, EngineError> {
        self.read_then_write(
            |e| e.try_marginal_gain(base, candidate),
            |e| e.marginal_gain(base, candidate),
        )
    }

    /// Answers through the engine's read-only `try_*` path under the read
    /// lock, or, on a miss, through its `&mut` twin under the write lock.
    /// Another writer may have satisfied the query in between; the
    /// mutable path re-checks and is deterministic, so recomputing is
    /// correct either way.
    fn read_then_write<T>(
        &self,
        read: impl FnOnce(&QueryEngine<M>) -> Option<T>,
        write: impl FnOnce(&mut QueryEngine<M>) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        // A `let`, so the read guard drops before the write lock is taken.
        let hit = read(&self.inner.read().expect(POISONED));
        match hit {
            Some(out) => Ok(out),
            None => self.with_growth(write),
        }
    }

    /// Current pool size θ (0 when cold).
    pub fn pool_theta(&self) -> u64 {
        self.inner.read().expect(POISONED).pool_theta()
    }

    /// The `k` the pool is warmed for.
    pub fn warmed_k(&self) -> usize {
        self.inner.read().expect(POISONED).warmed_k()
    }

    /// Content checksum of the attached graph.
    pub fn graph_checksum(&self) -> u64 {
        self.inner.read().expect(POISONED).graph_checksum()
    }

    /// Warms the pool ([`QueryEngine::warm`]) under the write lock and
    /// returns the resulting θ, or the planning error that left it as it
    /// was.
    pub fn warm(&self) -> Result<u64, EngineError> {
        self.with_growth(|e| e.warm())
    }

    /// The engine's current provenance header
    /// ([`QueryEngine::pool_meta`]), without cloning the sets.
    pub fn pool_meta(&self) -> crate::PoolMeta {
        self.inner.read().expect(POISONED).pool_meta()
    }

    /// Snapshots the current pool (with provenance) for persistence.
    pub fn to_pool(&self) -> RrPool {
        self.inner.read().expect(POISONED).to_pool()
    }

    /// Unwraps the engine (e.g. to persist it at shutdown).
    pub fn into_inner(self) -> QueryEngine<M> {
        self.inner.into_inner().expect(POISONED)
    }
}

impl<M: BackingModel + Clone> From<QueryEngine<M>> for SharedEngine<M> {
    fn from(engine: QueryEngine<M>) -> Self {
        SharedEngine::new(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tim_diffusion::IndependentCascade;
    use tim_graph::{gen, weights, Graph};

    fn wc_graph(n: usize, seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(n, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    fn shared(seed: u64) -> SharedEngine<IndependentCascade> {
        let mut engine = QueryEngine::new(wc_graph(300, 1), IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(seed)
            .threads(2)
            .k_max(8);
        engine.warm().unwrap();
        SharedEngine::new(engine)
    }

    #[test]
    fn shared_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedEngine<IndependentCascade>>();
        assert_send_sync::<QueryEngine<IndependentCascade>>();
    }

    #[test]
    fn shared_answers_match_exclusive_answers() {
        let s = shared(3);
        let mut exclusive = QueryEngine::new(wc_graph(300, 1), IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(3)
            .threads(2)
            .k_max(8);
        exclusive.warm().unwrap();
        for k in [1usize, 4, 8] {
            assert_eq!(s.select(k).seeds, exclusive.select(k).seeds, "k = {k}");
        }
        let seeds = s.select(4).seeds;
        assert_eq!(s.spread(&seeds).unwrap(), exclusive.spread(&seeds).unwrap());
        assert_eq!(
            s.marginal_gain(&seeds, 99).unwrap(),
            exclusive.marginal_gain(&seeds, 99).unwrap()
        );
        assert_eq!(
            s.select_fast(3).unwrap().seeds,
            exclusive.select_fast(3).unwrap().seeds
        );
        assert_eq!(s.pool_theta(), exclusive.pool_theta());
    }

    #[test]
    fn concurrent_selects_agree_with_serial_answers() {
        let s = Arc::new(shared(5));
        // Serial ground truth, including per-k plan caching.
        let serial: Vec<Vec<u32>> = (1..=8).map(|k| s.select(k).seeds).collect();
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    (1..=8)
                        .map(|k| {
                            // Stagger the order per worker to interleave.
                            let k = (k + w) % 8 + 1;
                            (k, s.select(k).seeds)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (k, seeds) in w.join().unwrap() {
                assert_eq!(seeds, serial[k - 1], "k = {k}");
            }
        }
    }

    #[test]
    fn growth_epoch_tracks_pool_growth_only() {
        let s = shared(6); // warmed before wrapping: epoch starts at 0
        assert_eq!(s.growth_epoch(), 0);
        // Warm-pool queries (reads and write-path plan caching) never
        // bump the epoch.
        s.select(3);
        s.select_fast(2).unwrap();
        s.spread(&[0, 1]).unwrap();
        s.marginal_gain(&[0], 5).unwrap();
        assert_eq!(s.growth_epoch(), 0, "no growth, no epoch bump");
        // A tighter ε forces a resample through the write path.
        let out = s.select_with(3, Some(0.1), None).unwrap();
        assert!(out.resampled);
        assert_eq!(s.growth_epoch(), 1);
        // The same query again answers from the grown pool.
        s.select_with(3, Some(0.1), None).unwrap();
        assert_eq!(s.growth_epoch(), 1);
    }

    #[test]
    fn cold_shared_engine_warms_through_the_write_path() {
        let engine = QueryEngine::new(wc_graph(300, 2), IndependentCascade, "ic")
            .epsilon(0.9)
            .seed(9)
            .threads(2)
            .k_max(4);
        let s = SharedEngine::new(engine); // not warmed
        assert_eq!(s.pool_theta(), 0);
        let out = s.select(2);
        assert!(out.resampled, "cold pool must resample");
        assert!(s.pool_theta() > 0);
        assert!(s.spread(&out.seeds).unwrap() > 0.0);
        let pool = s.to_pool();
        assert_eq!(pool.meta.theta, s.pool_theta());
    }
}

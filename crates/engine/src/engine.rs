//! The warm-pool query engine.

use crate::error::EngineError;
use crate::pool::{PoolMeta, RrPool};
use crate::pool_mmap::PoolMmap;
use std::collections::BTreeMap;
use std::sync::Arc;
use tim_core::parallel::{generate_rr_sets, shard_layout};
use tim_core::select::resolve_select_threads;
use tim_core::{select_stream_seed, SamplingPlan, TimPlus};
use tim_coverage::{
    greedy_max_cover_sharded, greedy_max_cover_sharded_indexed, CoverResult, SetCollection,
    SetsAccess, SetsStore, SetsView,
};
use tim_diffusion::BackingModel;
use tim_graph::{CsrView, Graph, GraphStore, NodeId};

/// Result of one `select` query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The selected seed set (dense ids), in greedy order.
    pub seeds: Vec<NodeId>,
    /// θ the answer was computed over — exactly what a fresh
    /// [`TimPlus::run`] at the same `(seed, ε, ℓ, k)` would sample.
    pub theta_used: u64,
    /// Current pool size (≥ `theta_used`).
    pub pool_theta: u64,
    /// True when this query forced the pool to grow (cold pool, larger
    /// `k`, or a tighter ε/ℓ demanded more sets).
    pub resampled: bool,
    /// `n · F_R(S)`: coverage-based unbiased estimate of the seeds'
    /// expected spread, over the `theta_used` sets.
    pub estimated_spread: f64,
}

/// Cached single greedy run used by [`QueryEngine::select_fast`].
#[derive(Debug)]
struct FastCover {
    pool_theta: u64,
    cover: CoverResult,
}

/// An influence-query engine that amortizes RR-set sampling across
/// queries.
///
/// TIM+ splits into an expensive sampling phase and a cheap greedy phase;
/// a `QueryEngine` keeps the sampled pool resident (and optionally
/// persisted via [`RrPool`]) so that repeated queries pay only for greedy
/// max-coverage. Two answering modes:
///
/// - [`select`](Self::select) — **exact replay**: re-derives the
///   [`SamplingPlan`] for the queried `k`, carves the exact θ-prefix a
///   fresh run would have sampled out of the pool (see
///   [`shard_layout`]'s prefix-composability), and returns seed sets
///   **byte-identical** to [`TimPlus::run`] at the same
///   `(seed, ε, ℓ, k)`. The pool grows (resamples) only when ε/ℓ/k
///   demand a larger θ than it holds.
/// - [`select_fast`](Self::select_fast) — **prefix answering**: one
///   greedy run over the whole pool at its full θ, answering any `k` as
///   the `k`-prefix of that run (greedy's prefix property). Uses *more*
///   sets than required — θ ≥ λ/OPT still holds, so the
///   `(1 − 1/e − ε)` guarantee is preserved — at near-zero marginal
///   cost per query.
///
/// Spread and marginal-gain queries are answered against the full pool.
///
/// ```
/// use tim_diffusion::IndependentCascade;
/// use tim_engine::QueryEngine;
/// use tim_graph::{gen, weights};
///
/// let mut g = gen::barabasi_albert(300, 4, 0.1, 1);
/// weights::assign_weighted_cascade(&mut g);
/// let mut engine = QueryEngine::new(g, IndependentCascade, "ic")
///     .epsilon(0.8)
///     .seed(7)
///     .k_max(10);
/// engine.warm();
///
/// let five = engine.select(5);
/// assert_eq!(five.seeds.len(), 5);
/// assert!(!five.resampled); // served from the warm pool
/// let gain = engine.marginal_gain(&five.seeds, 99);
/// assert!(gain >= 0.0);
/// ```
#[derive(Debug)]
pub struct QueryEngine<M> {
    store: GraphStore,
    model: M,
    model_name: String,
    epsilon: f64,
    ell: f64,
    seed: u64,
    threads: usize,
    select_threads: usize,
    k_max: usize,
    select_seed: u64,
    /// The RR-set pool, served from the heap or zero-copy from a mapped
    /// `.timp` v2 file. Every query path reads through it; growth
    /// replaces it with a freshly sampled heap collection.
    pool: SetsStore,
    pool_theta: u64,
    /// Plan cache keyed by `(k, ε bits, ℓ bits)`.
    plans: BTreeMap<(usize, u64, u64), SamplingPlan>,
    fast: Option<FastCover>,
}

impl<M: BackingModel + Clone> QueryEngine<M> {
    /// Creates a cold engine (no sets sampled yet) for `graph` under
    /// `model`, with the paper's defaults (ε = 0.1, ℓ = 1, seed 0,
    /// `k_max` 50). `model_name` is the provenance tag persisted with
    /// pools (`"ic"` / `"lt"`).
    ///
    /// Accepts the graph by value or as an [`Arc`] — several engines (e.g.
    /// the entries of a serving pool cache) can share one immutable graph
    /// without copying the CSR arrays. To serve an out-of-core graph
    /// straight from a mapped v2 snapshot, use
    /// [`with_store`](Self::with_store).
    ///
    /// # Panics
    /// Panics if the graph has fewer than 2 nodes or no edges.
    pub fn new(graph: impl Into<Arc<Graph>>, model: M, model_name: impl Into<String>) -> Self {
        Self::with_store(GraphStore::from_arc(graph.into()), model, model_name)
    }

    /// Creates a cold engine over an arbitrary [`GraphStore`] backing —
    /// heap-resident or a zero-copy mmap view. Answers are backing-
    /// independent: the same `(seed, ε, ℓ, k)` yields byte-identical
    /// seeds whether the store is heap or mmap (the sampling streams
    /// never depend on the backing).
    ///
    /// # Panics
    /// Panics if the graph has fewer than 2 nodes or no edges.
    pub fn with_store(store: GraphStore, model: M, model_name: impl Into<String>) -> Self {
        assert!(store.n() >= 2, "engine needs at least 2 nodes");
        assert!(store.m() >= 1, "engine needs at least 1 edge");
        let n = store.n();
        QueryEngine {
            store,
            model,
            model_name: model_name.into(),
            epsilon: 0.1,
            ell: 1.0,
            seed: 0,
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            select_threads: 1,
            k_max: 50,
            select_seed: select_stream_seed(0),
            pool: SetsStore::heap(SetCollection::new(n)),
            pool_theta: 0,
            plans: BTreeMap::new(),
            fast: None,
        }
    }

    /// Sets the approximation slack ε (default 0.1).
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        self.epsilon = epsilon;
        self
    }

    /// Sets the failure exponent ℓ (default 1).
    #[must_use]
    pub fn ell(mut self, ell: f64) -> Self {
        assert!(ell > 0.0, "ell must be positive");
        self.ell = ell;
        self
    }

    /// Sets the run seed all queries replicate (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.select_seed = select_stream_seed(seed);
        self
    }

    /// Caps worker threads for resampling (default: all cores). Thread
    /// count never changes results.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        self.threads = threads;
        self
    }

    /// Worker threads for the greedy selection phase (default 1 = serial;
    /// 0 = all cores). The sharded solver is byte-identical to the serial
    /// one, so this never changes answers — only latency.
    #[must_use]
    pub fn select_threads(mut self, select_threads: usize) -> Self {
        self.select_threads = select_threads;
        self
    }

    /// Sets the seed-set size the pool is warmed for (default 50).
    /// Queries beyond it still work — they grow the pool on demand.
    #[must_use]
    pub fn k_max(mut self, k_max: usize) -> Self {
        assert!(k_max >= 1, "k_max must be at least 1");
        self.k_max = k_max;
        self
    }

    /// Attaches a persisted pool to a graph, validating the full
    /// provenance chain (graph checksum, model tag, universe size, seed
    /// consistency). The engine adopts the pool's `(ε, ℓ, seed, k_max)`.
    pub fn from_pool(
        graph: impl Into<Arc<Graph>>,
        model: M,
        model_name: impl Into<String>,
        pool: RrPool,
    ) -> Result<Self, EngineError> {
        Self::from_pool_store(GraphStore::from_arc(graph.into()), model, model_name, pool)
    }

    /// [`from_pool`](Self::from_pool) over an arbitrary [`GraphStore`]
    /// backing. Provenance validation is backing-independent — the
    /// checksum a heap graph hashes to is the one a v2 snapshot records
    /// in its header — so a pool sampled against a heap graph attaches
    /// to the same graph served from an mmap view, and vice versa.
    pub fn from_pool_store(
        store: GraphStore,
        model: M,
        model_name: impl Into<String>,
        pool: RrPool,
    ) -> Result<Self, EngineError> {
        let model_name = model_name.into();
        Self::validate_pool_meta(&store, &model_name, &pool.meta, pool.sets.universe())?;
        let meta = &pool.meta;
        let mut engine = QueryEngine::with_store(store, model, model_name)
            .epsilon(meta.epsilon)
            .ell(meta.ell)
            .seed(meta.seed)
            .k_max(meta.k_max.max(1) as usize);
        engine.pool_theta = pool.meta.theta;
        engine.pool = SetsStore::heap(pool.sets);
        // Invariant: a non-empty pool always carries a fresh inverted
        // index, so the read-only `try_*` paths can run greedy without
        // mutating the collection. (Mapped pools persist theirs.)
        engine.pool.ensure_inverted_index();
        Ok(engine)
    }

    /// [`from_pool_store`](Self::from_pool_store) for a zero-copy mapped
    /// `.timp` v2 pool: the same provenance chain is validated, but the
    /// sets stay in the file mapping — no heap decode, no index rebuild
    /// (v2 persists the inverted index). Every query class answers
    /// byte-identically to the heap backing; growth (a tighter ε or a
    /// larger `k`) resamples onto the heap exactly as it would have.
    pub fn from_mapped_pool(
        store: GraphStore,
        model: M,
        model_name: impl Into<String>,
        pool: PoolMmap,
    ) -> Result<Self, EngineError> {
        let model_name = model_name.into();
        Self::validate_pool_meta(&store, &model_name, pool.meta(), pool.sets().universe())?;
        let (meta, sets) = pool.into_parts();
        let mut engine = QueryEngine::with_store(store, model, model_name)
            .epsilon(meta.epsilon)
            .ell(meta.ell)
            .seed(meta.seed)
            .k_max(meta.k_max.max(1) as usize);
        engine.pool_theta = meta.theta;
        engine.pool = SetsStore::mapped(sets);
        Ok(engine)
    }

    /// The provenance chain every pool attach validates, whatever the
    /// backing: graph checksum, model tag, universe size, seed
    /// derivation, and usable ε/ℓ.
    fn validate_pool_meta(
        store: &GraphStore,
        model_name: &str,
        meta: &PoolMeta,
        universe: usize,
    ) -> Result<(), EngineError> {
        let checksum = store.checksum();
        if meta.graph_checksum != checksum {
            return Err(EngineError::Mismatch(format!(
                "pool was sampled on graph {:#018x}, this graph is {checksum:#018x} \
                 (different edges, probabilities, or weight model)",
                meta.graph_checksum
            )));
        }
        if meta.model != model_name {
            return Err(EngineError::Mismatch(format!(
                "pool was sampled under model '{}', engine uses '{model_name}'",
                meta.model
            )));
        }
        if universe != store.n() {
            return Err(EngineError::Mismatch(format!(
                "pool universe {universe} != graph node count {}",
                store.n()
            )));
        }
        if meta.select_seed != select_stream_seed(meta.seed) {
            return Err(EngineError::Mismatch(
                "pool's select seed is not its run seed's under this selection-sampler \
                 revision (sampled by an older sampler, or tampered with)"
                    .into(),
            ));
        }
        // f64::from_bits accepts anything, so a structurally valid pool can
        // still carry unusable parameters; reject them here rather than
        // panicking in the builder asserts.
        if meta.epsilon <= 0.0 || !meta.epsilon.is_finite() {
            return Err(EngineError::Format(format!(
                "pool epsilon {} is not a positive finite number",
                meta.epsilon
            )));
        }
        if meta.ell <= 0.0 || !meta.ell.is_finite() {
            return Err(EngineError::Format(format!(
                "pool ell {} is not a positive finite number",
                meta.ell
            )));
        }
        Ok(())
    }

    /// The engine's current provenance header (what
    /// [`to_pool`](Self::to_pool) would persist), without cloning the
    /// sets. Cheap — used e.g. to derive pool-cache keys.
    pub fn pool_meta(&self) -> PoolMeta {
        PoolMeta {
            graph_checksum: self.store.checksum(),
            model: self.model_name.clone(),
            epsilon: self.epsilon,
            ell: self.ell,
            seed: self.seed,
            k_max: self.k_max as u32,
            theta: self.pool_theta,
            select_seed: self.select_seed,
        }
    }

    /// Snapshots the current pool (with provenance) for persistence.
    /// For a mapped backing this materializes a heap copy of the sets —
    /// callers that only respill an unchanged mapped pool should skip
    /// the spill instead (the file already holds these bytes).
    pub fn to_pool(&self) -> RrPool {
        let sets = match self.pool.as_heap() {
            Some(c) => c.clone(),
            None => self
                .pool
                .as_mapped()
                .expect("pool is heap or mapped")
                .to_collection(),
        };
        RrPool {
            meta: self.pool_meta(),
            sets,
        }
    }

    /// True when the pool is served zero-copy from a mapped `.timp` v2
    /// file rather than the heap.
    pub fn pool_is_mapped(&self) -> bool {
        self.pool.is_mapped()
    }

    /// Heap bytes held by the pool backing (0 when mapped).
    pub fn pool_memory_bytes(&self) -> usize {
        self.pool.memory_bytes()
    }

    /// Bytes of the pool's file mapping (0 when heap-backed).
    pub fn pool_mapped_bytes(&self) -> usize {
        self.pool.mapped_bytes()
    }

    /// The backing store queries run against (heap or mmap).
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// The heap graph queries run against.
    ///
    /// # Panics
    /// Panics when the engine serves a mapped snapshot — there is no
    /// heap `Graph` to borrow; use [`store`](Self::store).
    pub fn graph(&self) -> &Graph {
        self.store
            .heap_arc()
            .expect("graph(): engine is mmap-backed (use store())")
    }

    /// A shared handle to the heap graph, for building further engines
    /// (e.g. pool-cache entries at a different ε/ℓ) without copying it.
    ///
    /// # Panics
    /// Panics when the engine serves a mapped snapshot; clone
    /// [`store`](Self::store) instead.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(
            self.store
                .heap_arc()
                .expect("graph_arc(): engine is mmap-backed (use store())"),
        )
    }

    /// Current pool size θ (0 when cold).
    pub fn pool_theta(&self) -> u64 {
        self.pool_theta
    }

    /// The `k` the pool is warmed for.
    pub fn warmed_k(&self) -> usize {
        self.k_max
    }

    /// Content checksum of the attached graph (backing-independent).
    pub fn graph_checksum(&self) -> u64 {
        self.store.checksum()
    }

    /// Warms the pool so that **every** `k ≤ k_max` is answerable without
    /// resampling, and returns the resulting pool θ.
    ///
    /// θ(k) = λ(k)/KPT⁺(k) is *not* monotone in `k`: λ grows with `k`,
    /// but so does the KPT⁺ bound, and for small `k` the bound is small
    /// enough that θ(1) routinely exceeds θ(k_max). Warming therefore
    /// provisions `max(θ(1), θ(k_max), ⌈λ(k_max)/KPT⁺(1)⌉)`; the last
    /// term upper-bounds θ(k) for every `k ≤ k_max` whose KPT⁺ estimate
    /// is at least KPT⁺(1) (KPT is monotone in `k`, so estimates only
    /// fall below that on sampling noise).
    pub fn warm(&mut self) -> u64 {
        let plan_one = self.plan_for(1, self.epsilon, self.ell);
        let plan_top = self.plan_for(self.k_max, self.epsilon, self.ell);
        let bound_one = plan_one.kpt_plus.unwrap_or(plan_one.kpt_star);
        let lam_top = tim_core::math::lambda(
            self.store.n() as u64,
            plan_top.k as u64,
            self.epsilon,
            plan_top.ell_eff,
        );
        let theta_bound = (lam_top / bound_one).ceil().max(1.0) as u64;
        self.ensure_theta(plan_one.theta.max(plan_top.theta).max(theta_bound));
        self.pool_theta
    }

    /// Computes (and caches) the sampling plan for `k` under `(eps, ell)`.
    fn plan_for(&mut self, k: usize, eps: f64, ell: f64) -> SamplingPlan {
        let key = (k, eps.to_bits(), ell.to_bits());
        if let Some(plan) = self.plans.get(&key) {
            return plan.clone();
        }
        let planner = TimPlus::new(self.model.clone())
            .epsilon(eps)
            .ell(ell)
            .seed(self.seed)
            .threads(self.threads);
        // Dispatch once on the backing; the planner body is monomorphized
        // per concrete CSR type, so the heap path keeps its old codegen.
        let plan = match self.store.view() {
            CsrView::Heap(g) => planner.plan(g, k),
            CsrView::Mmap(v) => planner.plan(v, k),
        };
        self.plans.insert(key, plan.clone());
        plan
    }

    /// Grows the pool to at least `theta` sets; returns true if it
    /// resampled.
    fn ensure_theta(&mut self, theta: u64) -> bool {
        if theta <= self.pool_theta {
            return false;
        }
        // Regenerate from the fixed selection stream: deterministic, and
        // the old pool is a shard-aligned prefix of the new one. A mapped
        // backing is simply replaced — growth is always heap-side, and
        // the next farewell spill persists the grown pool as a fresh v2
        // file.
        let (pool, _) = match self.store.view() {
            CsrView::Heap(g) => {
                generate_rr_sets(g, &self.model, theta, self.select_seed, self.threads)
            }
            CsrView::Mmap(v) => {
                generate_rr_sets(v, &self.model, theta, self.select_seed, self.threads)
            }
        };
        self.pool = SetsStore::heap(pool);
        // Keep the inverted index fresh whenever the pool is non-empty, so
        // every subsequent same-θ greedy run — including the read-only
        // `try_*` paths used under shared references — is `&self`.
        self.pool.ensure_inverted_index();
        self.pool_theta = theta;
        self.fast = None;
        true
    }

    /// Extracts the sub-collection a fresh `theta`-set run would have
    /// produced (see [`shard_layout`] for why this is exact).
    fn subset(&self, theta: u64) -> SetCollection {
        debug_assert!(theta <= self.pool_theta);
        let pool_counts = shard_layout(self.pool_theta);
        let want = shard_layout(theta);
        let view = self.pool.view();
        let mut sub =
            SetCollection::with_capacity(view.universe(), theta as usize, theta as usize * 2);
        let mut start = 0usize;
        for (i, &pool_count) in pool_counts.iter().enumerate() {
            let take = want.get(i).copied().unwrap_or(0) as usize;
            for j in 0..take {
                sub.push(view.set(start + j));
            }
            start += pool_count as usize;
        }
        sub
    }

    /// Answers a `k`-seed selection **byte-identically** to
    /// [`TimPlus::run`] at the engine's `(seed, ε, ℓ)`: the estimation
    /// phases are replayed (cheap), and the selection sample is carved
    /// from the pool instead of regenerated (the expensive part).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn select(&mut self, k: usize) -> QueryOutcome {
        self.select_with(k, None, None)
    }

    /// [`select`](Self::select) with per-query ε/ℓ overrides. A tighter
    /// ε or ℓ than the pool was built for may demand a larger θ, which
    /// triggers a resample (reported in
    /// [`QueryOutcome::resampled`]).
    pub fn select_with(&mut self, k: usize, eps: Option<f64>, ell: Option<f64>) -> QueryOutcome {
        assert!(k >= 1, "k must be at least 1");
        let eps = eps.unwrap_or(self.epsilon);
        let ell = ell.unwrap_or(self.ell);
        assert!(eps > 0.0 && ell > 0.0, "epsilon and ell must be positive");
        let plan = self.plan_for(k, eps, ell);
        let resampled = self.ensure_theta(plan.theta);
        let outcome = self.answer_plan(&plan, resampled);
        debug_assert_eq!(outcome.seeds.len(), plan.k.min(self.store.n()));
        outcome
    }

    /// Runs greedy for an already-satisfiable plan (`plan.theta ≤`
    /// [`pool_theta`](Self::pool_theta)) — the shared tail of the mutable
    /// and read-only select paths.
    fn answer_plan(&self, plan: &SamplingPlan, resampled: bool) -> QueryOutcome {
        debug_assert!(plan.theta <= self.pool_theta);
        let n = self.store.n() as f64;
        let t = resolve_select_threads(self.select_threads);
        let cover = if plan.theta == self.pool_theta {
            // Match once so the solver's inner loops monomorphize per
            // backing instead of dispatching per set access.
            match self.pool.view() {
                SetsView::Heap(c) => greedy_max_cover_sharded_indexed(c, plan.k, t),
                SetsView::Mmap(m) => greedy_max_cover_sharded_indexed(m, plan.k, t),
            }
        } else {
            greedy_max_cover_sharded(&mut self.subset(plan.theta), plan.k, t)
        };
        let frac = cover.coverage_fraction(plan.theta as usize);
        QueryOutcome {
            seeds: cover.seeds,
            theta_used: plan.theta,
            pool_theta: self.pool_theta,
            resampled,
            estimated_spread: frac * n,
        }
    }

    /// Read-only [`select_with`](Self::select_with): answers from cached
    /// plans and the current pool **without mutating the engine**, or
    /// returns `None` when the query would need a plan computation or a
    /// resample (then take the `&mut` path). Used by
    /// [`SharedEngine`](crate::SharedEngine) to serve concurrent readers
    /// under a read lock; a `Some` answer is byte-identical to what
    /// [`select_with`](Self::select_with) would return.
    ///
    /// # Panics
    /// Panics if `k == 0` or a given ε/ℓ is not positive.
    pub fn try_select_with(
        &self,
        k: usize,
        eps: Option<f64>,
        ell: Option<f64>,
    ) -> Option<QueryOutcome> {
        assert!(k >= 1, "k must be at least 1");
        let eps = eps.unwrap_or(self.epsilon);
        let ell = ell.unwrap_or(self.ell);
        assert!(eps > 0.0 && ell > 0.0, "epsilon and ell must be positive");
        let plan = self.plans.get(&(k, eps.to_bits(), ell.to_bits()))?;
        if plan.theta > self.pool_theta {
            return None;
        }
        Some(self.answer_plan(plan, false))
    }

    /// Answers a `k`-seed selection as the `k`-prefix of a single cached
    /// greedy run over the **full** pool. Near-zero marginal cost per
    /// query; uses more RR sets than a fresh run would, so the
    /// approximation guarantee is preserved (θ only ever exceeds the
    /// required λ/OPT), but seed sets may differ from
    /// [`select`](Self::select)'s exact replay.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn select_fast(&mut self, k: usize) -> QueryOutcome {
        assert!(k >= 1, "k must be at least 1");
        let resampled = if k > self.k_max {
            self.k_max = k;
            let plan = self.plan_for(k, self.epsilon, self.ell);
            self.ensure_theta(plan.theta)
        } else {
            let plan = self.plan_for(self.k_max, self.epsilon, self.ell);
            self.ensure_theta(plan.theta)
        };
        let depth = self.k_max;
        let stale = match &self.fast {
            Some(f) => f.pool_theta != self.pool_theta || f.cover.seeds.len() < k.min(depth),
            None => true,
        };
        if stale {
            let t = resolve_select_threads(self.select_threads);
            self.pool.ensure_inverted_index();
            let cover = match self.pool.view() {
                SetsView::Heap(c) => greedy_max_cover_sharded_indexed(c, depth, t),
                SetsView::Mmap(m) => greedy_max_cover_sharded_indexed(m, depth, t),
            };
            self.fast = Some(FastCover {
                pool_theta: self.pool_theta,
                cover,
            });
        }
        let fast = self.fast.as_ref().expect("fast cover just ensured");
        Self::fast_prefix_outcome(fast, k, self.pool_theta, self.store.n(), resampled)
    }

    /// Assembles the `k`-prefix answer from a cached full-pool greedy run.
    fn fast_prefix_outcome(
        fast: &FastCover,
        k: usize,
        pool_theta: u64,
        n: usize,
        resampled: bool,
    ) -> QueryOutcome {
        let k_eff = k.min(fast.cover.seeds.len());
        let covered: usize = fast.cover.marginal[..k_eff].iter().sum();
        let frac = if pool_theta == 0 {
            0.0
        } else {
            covered as f64 / pool_theta as f64
        };
        QueryOutcome {
            seeds: fast.cover.seeds[..k_eff].to_vec(),
            theta_used: pool_theta,
            pool_theta,
            resampled,
            estimated_spread: frac * n as f64,
        }
    }

    /// Read-only [`select_fast`](Self::select_fast): serves the `k`-prefix
    /// from the cached full-pool greedy run without mutating the engine,
    /// or returns `None` when the cache is cold/stale or `k` exceeds the
    /// warmed `k_max` (then take the `&mut` path). A `Some` answer is
    /// byte-identical to what [`select_fast`](Self::select_fast) would
    /// return from the same state.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn try_select_fast(&self, k: usize) -> Option<QueryOutcome> {
        assert!(k >= 1, "k must be at least 1");
        if k > self.k_max {
            return None;
        }
        let plan = self
            .plans
            .get(&(self.k_max, self.epsilon.to_bits(), self.ell.to_bits()))?;
        if plan.theta > self.pool_theta {
            return None;
        }
        let fast = self.fast.as_ref()?;
        if fast.pool_theta != self.pool_theta || fast.cover.seeds.len() < k.min(self.k_max) {
            return None;
        }
        Some(Self::fast_prefix_outcome(
            fast,
            k,
            self.pool_theta,
            self.store.n(),
            false,
        ))
    }

    /// Estimates `E[I(seeds)]` as `n · F_R(seeds)` over the full pool
    /// (Corollary 1's unbiased coverage estimator). Warms the pool first
    /// if cold.
    ///
    /// # Panics
    /// Panics if any seed is outside the graph's node range.
    pub fn spread(&mut self, seeds: &[NodeId]) -> f64 {
        if self.pool_theta == 0 {
            self.warm();
        }
        self.pool.coverage_fraction(seeds) * self.store.n() as f64
    }

    /// Estimates the marginal spread gain of adding `candidate` to `base`:
    /// `spread(base ∪ {candidate}) − spread(base)`, both against the full
    /// pool. Zero when `candidate` is already in `base`.
    pub fn marginal_gain(&mut self, base: &[NodeId], candidate: NodeId) -> f64 {
        if base.contains(&candidate) {
            return 0.0;
        }
        if self.pool_theta == 0 {
            self.warm();
        }
        let before = self.pool.count_covered(base);
        let mut with: Vec<NodeId> = base.to_vec();
        with.push(candidate);
        let after = self.pool.count_covered(&with);
        let denom = self.pool.len().max(1) as f64;
        (after - before) as f64 / denom * self.store.n() as f64
    }

    /// Read-only [`spread`](Self::spread): `None` when the pool is cold
    /// (then take the `&mut` path, which warms it). A `Some` answer equals
    /// what [`spread`](Self::spread) would return from the same state.
    ///
    /// # Panics
    /// Panics if any seed is outside the graph's node range.
    pub fn try_spread(&self, seeds: &[NodeId]) -> Option<f64> {
        if self.pool_theta == 0 {
            return None;
        }
        Some(self.pool.coverage_fraction(seeds) * self.store.n() as f64)
    }

    /// Read-only [`marginal_gain`](Self::marginal_gain): `None` when the
    /// pool is cold (then take the `&mut` path, which warms it).
    pub fn try_marginal_gain(&self, base: &[NodeId], candidate: NodeId) -> Option<f64> {
        if base.contains(&candidate) {
            return Some(0.0);
        }
        if self.pool_theta == 0 {
            return None;
        }
        let before = self.pool.count_covered(base);
        let mut with: Vec<NodeId> = base.to_vec();
        with.push(candidate);
        let after = self.pool.count_covered(&with);
        let denom = self.pool.len().max(1) as f64;
        Some((after - before) as f64 / denom * self.store.n() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tim_diffusion::IndependentCascade;
    use tim_graph::{gen, weights};

    fn wc_graph(n: usize, seed: u64) -> Graph {
        let mut g = gen::barabasi_albert(n, 4, 0.0, seed);
        weights::assign_weighted_cascade(&mut g);
        g
    }

    fn engine(seed: u64) -> QueryEngine<IndependentCascade> {
        QueryEngine::new(wc_graph(300, 1), IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(seed)
            .threads(2)
            .k_max(12)
    }

    #[cfg(unix)]
    #[test]
    fn mmap_backed_engine_answers_identically_to_heap() {
        // The warm-state tenancy story depends on this: a pool sampled on
        // a heap graph must attach to the mmap view of the same snapshot,
        // and every query class must answer byte-identically.
        let g = wc_graph(300, 1);
        let labels: Vec<u64> = (0..g.n() as u64).collect();
        let dir = std::env::temp_dir().join(format!("tim_engine_mmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.timg");
        tim_graph::snapshot::save_snapshot_v2(&g, &labels, &path).unwrap();

        let mut heap = QueryEngine::new(g, IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(5)
            .threads(2)
            .k_max(12);
        let store = GraphStore::open_mmap(&path).unwrap();
        assert!(store.is_mmap());
        let mut mapped = QueryEngine::with_store(store, IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(5)
            .threads(2)
            .k_max(12);
        assert_eq!(heap.graph_checksum(), mapped.graph_checksum());
        assert_eq!(heap.warm(), mapped.warm());
        for k in [1usize, 6, 12] {
            let h = heap.select(k);
            let m = mapped.select(k);
            assert_eq!(h.seeds, m.seeds, "k={k}");
            assert_eq!(h.theta_used, m.theta_used);
            assert_eq!(h.estimated_spread, m.estimated_spread);
        }
        let seeds = heap.select(6).seeds;
        assert_eq!(heap.spread(&seeds), mapped.spread(&seeds));
        assert_eq!(
            heap.marginal_gain(&seeds, 99),
            mapped.marginal_gain(&seeds, 99)
        );
        assert_eq!(heap.select_fast(9).seeds, mapped.select_fast(9).seeds);

        // A pool spilled from the heap engine attaches to the mmap store
        // (identical provenance) and keeps answering identically.
        let pool = heap.to_pool();
        let mut restored = QueryEngine::from_pool_store(
            GraphStore::open_mmap(&path).unwrap(),
            IndependentCascade,
            "ic",
            pool,
        )
        .expect("heap-sampled pool must attach to the mmap backing");
        let out = restored.select(6);
        assert_eq!(out.seeds, seeds);
        assert!(!out.resampled);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mapped_pool_engine_answers_identically_to_heap() {
        // The out-of-core pool story: a pool spilled as `.timp` v2 and
        // attached zero-copy must answer every query class — exact
        // replay, fast prefix, spread, marginal gain — byte-identically
        // to the heap pool it was spilled from, at any thread count, with
        // no resample.
        let mut warm = engine(5);
        warm.warm();
        let dir = std::env::temp_dir().join(format!("tim_engine_poolmap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.timp");
        warm.to_pool().save_v2(&path).unwrap();

        for select_threads in [1usize, 4] {
            let mapped = crate::PoolMmap::open(&path).unwrap();
            let mut e = QueryEngine::from_mapped_pool(
                GraphStore::from_arc(warm.graph_arc()),
                IndependentCascade,
                "ic",
                mapped,
            )
            .expect("spilled pool must re-attach mapped")
            .threads(2)
            .select_threads(select_threads);
            assert!(e.pool_is_mapped());
            assert_eq!(e.pool_theta(), warm.pool_theta());
            assert_eq!(e.pool_memory_bytes(), 0);
            assert!(e.pool_mapped_bytes() > 0);

            let mut heap = engine(5).select_threads(select_threads);
            heap.warm();
            for k in [1usize, 6, 12] {
                let h = heap.select(k);
                let m = e.select(k);
                assert_eq!(h.seeds, m.seeds, "t={select_threads} k={k}");
                assert_eq!(h.estimated_spread, m.estimated_spread);
                assert!(!m.resampled, "mapped pool must serve without resampling");
            }
            assert!(e.pool_is_mapped(), "same-θ selects keep the mapping");
            assert_eq!(heap.select_fast(9).seeds, e.select_fast(9).seeds);
            let seeds = heap.select(6).seeds;
            assert_eq!(heap.spread(&seeds), e.spread(&seeds));
            assert_eq!(heap.marginal_gain(&seeds, 99), e.marginal_gain(&seeds, 99));
        }

        // Growth detaches from the mapping: a tighter ε resamples onto
        // the heap, byte-identically to the same growth on a heap pool.
        let mapped = crate::PoolMmap::open(&path).unwrap();
        let mut e = QueryEngine::from_mapped_pool(
            GraphStore::from_arc(warm.graph_arc()),
            IndependentCascade,
            "ic",
            mapped,
        )
        .unwrap()
        .threads(2);
        // θ scales as ε⁻²: 0.8 → 0.1 is a 64× demand, beyond any warm-up
        // over-provisioning.
        let grown = e.select_with(12, Some(0.1), None);
        assert!(grown.resampled);
        assert!(!e.pool_is_mapped(), "growth must move the pool heap-side");
        let reference = warm.select_with(12, Some(0.1), None);
        assert_eq!(grown.seeds, reference.seeds);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn select_threads_never_changes_answers() {
        // Exercises all three greedy call sites: the full-pool indexed
        // path (k = k_max), the subset path (k < k_max), and select_fast.
        let mut serial = engine(7);
        serial.warm();
        for select_threads in [2usize, 4, 0] {
            let mut sharded = engine(7).select_threads(select_threads);
            sharded.warm();
            for k in [1usize, 6, 12] {
                let a = serial.select(k);
                let b = sharded.select(k);
                assert_eq!(a.seeds, b.seeds, "t={select_threads} k={k}");
                assert_eq!(a.estimated_spread, b.estimated_spread);
                assert!(!b.resampled);
            }
            assert_eq!(
                serial.select_fast(9).seeds,
                sharded.select_fast(9).seeds,
                "t={select_threads} fast"
            );
        }
    }

    #[test]
    fn warm_pool_select_does_not_resample() {
        let mut e = engine(5);
        e.warm();
        let theta = e.pool_theta();
        assert!(theta > 0);
        for k in [1usize, 6, 12] {
            let out = e.select(k);
            assert_eq!(out.seeds.len(), k);
            assert!(!out.resampled, "k={k} resampled on a warm pool");
            assert!(out.theta_used <= theta);
        }
        assert_eq!(e.pool_theta(), theta);
    }

    #[test]
    fn tighter_epsilon_grows_the_pool() {
        let mut e = engine(6);
        e.warm();
        let before = e.pool_theta();
        // theta scales as eps^-2: 0.8 -> 0.1 is a 64x demand, far beyond
        // any over-provisioning the warm-up applied.
        let out = e.select_with(12, Some(0.1), None);
        assert!(out.resampled, "eps 0.8 -> 0.1 must grow theta");
        assert!(out.theta_used > before);
        assert!(e.pool_theta() >= out.theta_used);
        // And the old answers are still served without resampling.
        let again = e.select(12);
        assert!(!again.resampled);
    }

    #[test]
    fn fast_mode_is_a_prefix_of_the_deep_run() {
        let mut e = engine(7);
        e.warm();
        let full = e.select_fast(12);
        for k in [1usize, 4, 9] {
            let out = e.select_fast(k);
            assert_eq!(out.seeds, full.seeds[..k], "fast k={k} is not a prefix");
            assert!(!out.resampled);
            assert!(out.estimated_spread <= full.estimated_spread + 1e-9);
        }
    }

    #[test]
    fn spread_and_marginal_agree_with_pool_coverage() {
        let mut e = engine(8);
        e.warm();
        let out = e.select(4);
        let s = e.spread(&out.seeds);
        assert!((s - out.estimated_spread).abs() / out.estimated_spread < 0.25);
        // Marginal gain of an already-chosen seed is 0.
        assert_eq!(e.marginal_gain(&out.seeds, out.seeds[0]), 0.0);
        // Submodularity: gain on top of seeds <= gain on empty base.
        let cand = (0..e.graph().n() as NodeId)
            .find(|v| !out.seeds.contains(v))
            .unwrap();
        let on_seeds = e.marginal_gain(&out.seeds, cand);
        let on_empty = e.marginal_gain(&[], cand);
        assert!(on_seeds <= on_empty + 1e-9);
        assert!(on_empty >= 0.0);
        // A chosen seed on an empty base recovers its full (positive) gain.
        assert!(e.marginal_gain(&[], out.seeds[0]) > 0.0);
    }

    #[test]
    fn pool_round_trip_preserves_answers() {
        let mut e = engine(9);
        e.warm();
        let want = e.select(5).seeds;
        let pool = e.to_pool();
        let mut bytes = Vec::new();
        pool.write(&mut bytes).unwrap();
        let loaded = RrPool::read(bytes.as_slice()).unwrap();
        let mut e2 =
            QueryEngine::from_pool(wc_graph(300, 1), IndependentCascade, "ic", loaded).unwrap();
        let out = e2.select(5);
        assert_eq!(out.seeds, want);
        assert!(!out.resampled);
    }

    #[test]
    fn try_paths_answer_identically_or_report_misses() {
        let mut e = engine(12);
        // Cold engine, nothing cached: every try_* path must miss.
        assert!(e.try_select_with(3, None, None).is_none());
        assert!(e.try_select_fast(3).is_none());
        assert!(e.try_spread(&[0]).is_none());
        assert!(e.try_marginal_gain(&[0], 1).is_none());
        // An already-included candidate needs no pool at all.
        assert_eq!(e.try_marginal_gain(&[4], 4), Some(0.0));

        e.warm();
        // Warm pool but no plan cached for k = 3 yet: still a miss.
        assert!(e.try_select_with(3, None, None).is_none());
        let want = e.select(3);
        let got = e.try_select_with(3, None, None).expect("plan now cached");
        assert_eq!(got.seeds, want.seeds);
        assert_eq!(got.theta_used, want.theta_used);
        assert!(!got.resampled);

        // Fast cache must exist before the read-only fast path serves.
        assert!(e.try_select_fast(2).is_none());
        let want_fast = e.select_fast(2);
        let got_fast = e.try_select_fast(2).expect("fast cover now cached");
        assert_eq!(got_fast.seeds, want_fast.seeds);
        assert!(e.try_select_fast(e.warmed_k() + 1).is_none());

        let s = e.spread(&want.seeds);
        assert_eq!(e.try_spread(&want.seeds), Some(s));
        let m = e.marginal_gain(&want.seeds, 99);
        assert_eq!(e.try_marginal_gain(&want.seeds, 99), Some(m));
    }

    #[test]
    fn engines_share_one_graph_through_an_arc() {
        let g = std::sync::Arc::new(wc_graph(300, 1));
        let mut a = QueryEngine::new(std::sync::Arc::clone(&g), IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(5)
            .k_max(4);
        let mut b = QueryEngine::new(a.graph_arc(), IndependentCascade, "ic")
            .epsilon(0.8)
            .seed(5)
            .k_max(4);
        // Three handles: ours plus one per engine — no CSR copies made.
        assert_eq!(std::sync::Arc::strong_count(&g), 3);
        assert_eq!(a.select(4).seeds, b.select(4).seeds);
    }

    #[test]
    fn from_pool_rejects_unusable_parameters_without_panicking() {
        // f64::from_bits accepts anything, so a decoded pool can carry a
        // zero/negative/NaN epsilon; attaching must error, not panic.
        let mut e = engine(11);
        e.warm();
        for (eps, ell) in [(0.0, 1.0), (-1.0, 1.0), (f64::NAN, 1.0), (0.5, 0.0)] {
            let mut pool = e.to_pool();
            pool.meta.epsilon = eps;
            pool.meta.ell = ell;
            assert!(
                matches!(
                    QueryEngine::from_pool(wc_graph(300, 1), IndependentCascade, "ic", pool),
                    Err(EngineError::Format(_))
                ),
                "eps={eps} ell={ell} must be rejected"
            );
        }
    }

    #[test]
    fn from_pool_rejects_wrong_graph_and_model() {
        let mut e = engine(10);
        e.warm();
        let pool = e.to_pool();
        assert!(matches!(
            QueryEngine::from_pool(
                wc_graph(300, 2), // different graph
                IndependentCascade,
                "ic",
                pool.clone()
            ),
            Err(EngineError::Mismatch(_))
        ));
        assert!(matches!(
            QueryEngine::from_pool(wc_graph(300, 1), IndependentCascade, "lt", pool),
            Err(EngineError::Mismatch(_))
        ));
    }
}

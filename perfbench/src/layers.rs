//! The traced replay: a workload's request stream replayed in-process,
//! calling the public entry point of each layer from here, in the order
//! the server calls them, with a span around every call.
//!
//! A span holds name, start, end, parent span and request id; spans stay
//! in memory and are written out when the replay ends. A layer's self
//! time is its span minus what its child spans cover, so for each request
//! the self times plus the residual (TCP latency minus the request span)
//! add up to the TCP latency by construction. The same replay runs once
//! with spans off; the difference in wall time is the tracing overhead.
//!
//! The replay also re-derives what it can check: each pool's warm θ
//! (`max(θ(1), θ(k_max), ⌈λ(k_max)/KPT⁺(1)⌉)`) and every answer. Both
//! must equal what the server (and the in-process oracle) produced.

use crate::client::Exchange;
use crate::inputs::Tenant;
use crate::stats::{median, Metrics};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tim_core::parallel::{generate_rr_sets, shard_layout, BulkStats};
use tim_core::{select_stream_seed, SamplingPlan, TimPlus};
use tim_coverage::{
    count_covered_indexed, greedy_max_cover, greedy_max_cover_indexed,
    greedy_max_cover_indexed_stats, SetCollection, SetsAccess, SetsStore, SetsView,
};
use tim_diffusion::ModelKind;
use tim_engine::{PoolId, PoolMeta, PoolMmap, PoolStore, RrPool};
use tim_graph::{snapshot, weights, CsrView, GraphStore, MmapCsr, NodeId};
use tim_server::protocol::ping_reply;
use tim_server::{parse_request, LabelMap, ParsedRequest, Query, Request, ServerConfig};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end.saturating_sub(self.start)).as_secs_f64() * 1e3
    }
}

/// In-memory span recorder. With `on == false` every call is a no-op, so
/// the same replay code is the untraced baseline.
pub struct Tracer {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

const OFF: usize = usize::MAX;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        if !self.on {
            return OFF;
        }
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        if id == OFF {
            return;
        }
        self.spans[id].end = self.t0.elapsed();
        self.stack.pop();
    }

    /// A child of `parent` known only by duration (a phase the called
    /// entry point timed itself), placed `offset` after the parent start.
    fn synth(&mut self, parent: usize, name: &'static str, offset: Duration, dur: Duration) {
        if parent == OFF {
            return;
        }
        let p = &self.spans[parent];
        let start = p.start + offset;
        let span = Span {
            name,
            start,
            end: (start + dur).min(p.end),
            parent: Some(parent),
            req: p.req,
        };
        self.spans.push(span);
    }

    /// Self time (ms) of every span: its length minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"req\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        f.flush()
    }
}

/// A tenant's effective serving configuration, parsed from the same
/// `--graph` spec the server gets, over the server's defaults.
#[derive(Debug, Clone)]
pub struct TenantCfg {
    pub name: String,
    pub path: PathBuf,
    pub model: ModelKind,
    pub tag: String,
    pub eps: f64,
    pub ell: f64,
    pub seed: u64,
    pub k_max: usize,
    pub weights: String,
    pub mmap: bool,
    pub mmap_pools: bool,
}

pub fn tenant_cfg(t: &Tenant) -> Result<TenantCfg, String> {
    let (name, path, o) =
        tim_graph::catalog::parse_graph_spec_full(&t.spec()).map_err(|e| e.to_string())?;
    let d = ServerConfig::default();
    let tag = o.model.clone().unwrap_or_else(|| "ic".into());
    Ok(TenantCfg {
        model: ModelKind::from_tag(&tag).ok_or_else(|| format!("unknown model {tag}"))?,
        tag,
        name,
        path,
        eps: o.epsilon.unwrap_or(d.epsilon),
        ell: o.ell.unwrap_or(d.ell),
        seed: o.seed.unwrap_or(d.seed),
        k_max: o.k_max.unwrap_or(d.k_max),
        weights: o.weights.clone().unwrap_or(d.weights),
        mmap: o.mmap.unwrap_or(d.mmap),
        mmap_pools: o.mmap_pools.unwrap_or(d.mmap_pools),
    })
}

struct Loaded {
    store: GraphStore,
    labels: LabelMap,
}

struct Pool {
    sets: SetsStore,
    theta: u64,
    plans: BTreeMap<usize, SamplingPlan>,
    fast: Option<Vec<NodeId>>,
}

/// One pool the replay built, with what the faithfulness check needs.
#[derive(Debug, Clone)]
pub struct Build {
    pub tenant: String,
    pub id: PoolId,
    pub warm_theta: u64,
    pub theta_kmax: u64,
    pub sample_ms: f64,
    pub stats: BulkStats,
    pub index_ms: f64,
    pub spill_ms: f64,
    pub file_bytes: u64,
}

/// Planner timings of one `TimPlus::plan` call.
#[derive(Debug, Clone, Copy)]
pub struct PlanRec {
    pub kpt_ms: f64,
    pub refine_ms: f64,
    pub rr_sets: u64,
}

type PoolKey = (String, u64, u64);

/// The in-process mirror of one server process.
pub struct Replayer {
    pub tracer: Tracer,
    tenants: Vec<TenantCfg>,
    default: String,
    loaded: HashMap<String, Loaded>,
    pools: HashMap<PoolKey, Pool>,
    stores: HashMap<String, PoolStore>,
    store_root: PathBuf,
    /// Probe the store before building (a restarted process).
    restore: bool,
    threads: usize,
    /// The session's current graph.
    cur: String,
    req: u64,
    pub plans: Vec<PlanRec>,
    pub builds: Vec<Build>,
    /// `(entry point, ms)` of graph loads and pool restores.
    pub loads: Vec<(&'static str, f64)>,
    pub last_spill: Option<PathBuf>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Replayer {
    pub fn new(tenants: &[Tenant], store_root: &Path, traced: bool) -> Result<Replayer, String> {
        let tenants: Vec<TenantCfg> = tenants.iter().map(tenant_cfg).collect::<Result<_, _>>()?;
        let mut names: Vec<&str> = tenants.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        let default = names[0].to_string();
        Ok(Replayer {
            cur: default.clone(),
            tracer: Tracer::new(traced),
            tenants,
            default,
            loaded: HashMap::new(),
            pools: HashMap::new(),
            stores: HashMap::new(),
            store_root: store_root.to_path_buf(),
            restore: false,
            threads: crate::sys::nproc(),
            req: 0,
            plans: Vec::new(),
            builds: Vec::new(),
            loads: Vec::new(),
            last_spill: None,
        })
    }

    /// A fresh server process: nothing loaded, nothing cached, the session
    /// on the default graph, whose default pool is warmed first (from the
    /// store when `restore`, else built) — exactly what `tim serve` does
    /// right after `listening on`.
    pub fn start_process(&mut self, restore: bool) -> Result<(), String> {
        self.loaded.clear();
        self.pools.clear();
        self.cur = self.default.clone();
        self.restore = restore;
        self.req += 1;
        let root = self.tracer.enter("startup", self.req);
        let name = self.default.clone();
        let cfg = self.cfg(&name)?;
        self.ensure_pool(&name, cfg.eps, cfg.ell)?;
        self.tracer.exit(root);
        Ok(())
    }

    fn cfg(&self, name: &str) -> Result<TenantCfg, String> {
        self.tenants
            .iter()
            .find(|t| t.name == name)
            .cloned()
            .ok_or_else(|| format!("unknown graph '{name}'"))
    }

    fn graph(&mut self, name: &str) -> Result<(GraphStore, TenantCfg), String> {
        let cfg = self.cfg(name)?;
        if !self.loaded.contains_key(name) {
            let t = Instant::now();
            let loaded = if cfg.mmap {
                let id = self.tracer.enter("graph.mmap_open", self.req);
                let store = GraphStore::open_mmap(&cfg.path).map_err(|e| e.to_string())?;
                self.tracer.exit(id);
                self.loads.push(("graph.mmap_open", ms_since(t)));
                let labels = LabelMap::new(store.mmap_view().expect("mapped").labels().to_vec());
                Loaded { store, labels }
            } else {
                let id = self.tracer.enter("graph.decode", self.req);
                let mut g = snapshot::load_snapshot(&cfg.path).map_err(|e| e.to_string())?;
                self.tracer.exit(id);
                self.loads.push(("graph.decode", ms_since(t)));
                let id = self.tracer.enter("graph.weights", self.req);
                weights::apply_spec(&mut g.graph, &cfg.weights, cfg.seed)
                    .map_err(|e| e.to_string())?;
                self.tracer.exit(id);
                Loaded {
                    store: GraphStore::from(g.graph),
                    labels: LabelMap::new(g.labels),
                }
            };
            self.loaded.insert(name.to_string(), loaded);
        }
        Ok((self.loaded[name].store.clone(), cfg))
    }

    fn plan(
        &mut self,
        store: &GraphStore,
        cfg: &TenantCfg,
        eps: f64,
        ell: f64,
        k: usize,
    ) -> SamplingPlan {
        let id = self.tracer.enter("plan", self.req);
        let planner = TimPlus::new(cfg.model)
            .epsilon(eps)
            .ell(ell)
            .seed(cfg.seed)
            .threads(self.threads);
        let plan = match store.view() {
            CsrView::Heap(g) => planner.plan(g, k),
            CsrView::Mmap(v) => planner.plan(v, k),
        };
        self.tracer.exit(id);
        let kpt = plan.phases.parameter_estimation;
        self.tracer.synth(id, "plan.kpt", Duration::ZERO, kpt);
        self.tracer
            .synth(id, "plan.refine", kpt, plan.phases.refinement);
        self.plans.push(PlanRec {
            kpt_ms: kpt.as_secs_f64() * 1e3,
            refine_ms: plan.phases.refinement.as_secs_f64() * 1e3,
            rr_sets: plan.estimation_rr_sets,
        });
        plan
    }

    fn store(&mut self, name: &str) -> Result<&PoolStore, String> {
        if !self.stores.contains_key(name) {
            let s = PoolStore::open(self.store_root.join(name)).map_err(|e| e.to_string())?;
            self.stores.insert(name.to_string(), s);
        }
        Ok(&self.stores[name])
    }

    /// The pool for `(name, eps, ell)`: cached, restored, or built.
    fn ensure_pool(&mut self, name: &str, eps: f64, ell: f64) -> Result<PoolKey, String> {
        let key = (name.to_string(), eps.to_bits(), ell.to_bits());
        if self.pools.contains_key(&key) {
            return Ok(key);
        }
        let (store, cfg) = self.graph(name)?;
        let pool_id = PoolId::new(store.checksum(), cfg.tag.clone(), cfg.seed, eps, ell);
        let path = self.store(name)?.path_for(&pool_id);
        let pool = if self.restore && path.exists() {
            self.restore_pool(&cfg, &path)?
        } else {
            self.build_pool(&store, &cfg, pool_id, eps, ell)?
        };
        self.pools.insert(key.clone(), pool);
        Ok(key)
    }

    fn restore_pool(&mut self, cfg: &TenantCfg, path: &Path) -> Result<Pool, String> {
        if cfg.mmap_pools {
            let t = Instant::now();
            let id = self.tracer.enter("store.mmap_open", self.req);
            let mapped = PoolMmap::open(path).map_err(|e| e.to_string())?;
            self.tracer.exit(id);
            self.loads.push(("store.mmap_open", ms_since(t)));
            let t = Instant::now();
            let id = self.tracer.enter("store.verify", self.req);
            mapped.verify().map_err(|e| e.to_string())?;
            self.tracer.exit(id);
            self.loads.push(("store.verify", ms_since(t)));
            Ok(Pool {
                theta: mapped.meta().theta,
                sets: SetsStore::mapped(Arc::clone(mapped.sets())),
                plans: BTreeMap::new(),
                fast: None,
            })
        } else {
            let t = Instant::now();
            let id = self.tracer.enter("store.heap_load", self.req);
            let mut pool = RrPool::load(path).map_err(|e| e.to_string())?;
            self.tracer.exit(id);
            self.loads.push(("store.heap_load", ms_since(t)));
            let id = self.tracer.enter("index", self.req);
            pool.sets.ensure_inverted_index();
            self.tracer.exit(id);
            Ok(Pool {
                theta: pool.meta.theta,
                sets: SetsStore::heap(pool.sets),
                plans: BTreeMap::new(),
                fast: None,
            })
        }
    }

    /// What `QueryEngine::warm` and the cache's write-through do, one
    /// layer call at a time.
    fn build_pool(
        &mut self,
        store: &GraphStore,
        cfg: &TenantCfg,
        pool_id: PoolId,
        eps: f64,
        ell: f64,
    ) -> Result<Pool, String> {
        let p1 = self.plan(store, cfg, eps, ell, 1);
        let pk = self.plan(store, cfg, eps, ell, cfg.k_max);
        let bound_one = p1.kpt_plus.unwrap_or(p1.kpt_star);
        let lam = tim_core::math::lambda(store.n() as u64, pk.k as u64, eps, pk.ell_eff);
        let theta = p1
            .theta
            .max(pk.theta)
            .max((lam / bound_one).ceil().max(1.0) as u64);

        let t = Instant::now();
        let id = self.tracer.enter("sample", self.req);
        let seed = select_stream_seed(cfg.seed);
        let (mut sets, stats) = match store.view() {
            CsrView::Heap(g) => generate_rr_sets(g, &cfg.model, theta, seed, self.threads),
            CsrView::Mmap(v) => generate_rr_sets(v, &cfg.model, theta, seed, self.threads),
        };
        self.tracer.exit(id);
        let sample_ms = ms_since(t);

        let t = Instant::now();
        let id = self.tracer.enter("index", self.req);
        sets.ensure_inverted_index();
        self.tracer.exit(id);
        let index_ms = ms_since(t);

        let meta = PoolMeta {
            graph_checksum: store.checksum(),
            model: cfg.tag.clone(),
            epsilon: eps,
            ell,
            seed: cfg.seed,
            k_max: cfg.k_max as u32,
            theta,
            select_seed: seed,
        };
        // The write-through spills a snapshot (`SharedEngine::to_pool`
        // clones the heap sets), then writes and syncs the file.
        let id = self.tracer.enter("engine.to_pool", self.req);
        let snapshot = RrPool {
            meta,
            sets: sets.clone(),
        };
        self.tracer.exit(id);
        let t = Instant::now();
        let id = self.tracer.enter("store.spill", self.req);
        let path = self
            .store(&cfg.name)?
            .spill(&snapshot)
            .map_err(|e| e.to_string())?;
        self.tracer.exit(id);
        let spill_ms = ms_since(t);
        drop(snapshot);
        self.builds.push(Build {
            tenant: cfg.name.clone(),
            id: pool_id,
            warm_theta: theta,
            theta_kmax: pk.theta,
            sample_ms,
            stats,
            index_ms,
            spill_ms,
            file_bytes: std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0),
        });
        self.last_spill = Some(path);
        let mut plans = BTreeMap::new();
        plans.insert(1, p1);
        plans.insert(cfg.k_max, pk);
        Ok(Pool {
            sets: SetsStore::heap(sets),
            theta,
            plans,
            fast: None,
        })
    }

    fn cached_plan(&mut self, key: &PoolKey, k: usize) -> Result<SamplingPlan, String> {
        if let Some(p) = self.pools[key].plans.get(&k) {
            return Ok(p.clone());
        }
        let (store, cfg) = self.graph(&key.0)?;
        let plan = self.plan(
            &store,
            &cfg,
            f64::from_bits(key.1),
            f64::from_bits(key.2),
            k,
        );
        self.pools
            .get_mut(key)
            .expect("pool")
            .plans
            .insert(k, plan.clone());
        Ok(plan)
    }

    fn seeds_line(&self, name: &str, seeds: &[NodeId]) -> String {
        let labels = &self.loaded[name].labels;
        let l: Vec<String> = seeds
            .iter()
            .map(|&v| labels.label_of(v).to_string())
            .collect();
        format!("seeds: {}", l.join(" "))
    }

    /// Replays one request line; returns the answer the server should
    /// have given, or `None` for live-counter lines.
    pub fn request(&mut self, line: &str) -> Result<Option<String>, String> {
        self.req += 1;
        let req = self.req;
        let root = self.tracer.enter("request", req);
        let id = self.tracer.enter("protocol.parse", req);
        let parsed = parse_request(line);
        self.tracer.exit(id);
        let cur = self.cur.clone();
        let answer = match parsed {
            ParsedRequest::Request(Request::Use(name)) => {
                self.cur = name.clone();
                Some(format!("using {name}"))
            }
            ParsedRequest::Request(Request::Stats) => {
                let (store, c) = self.graph(&cur)?;
                Some(format!(
                    "stats: graph={} n={} m={} checksum={:016x} model={} eps={} ell={} seed={} k_max={}",
                    c.name, store.n(), store.m(), store.checksum(), c.tag, c.eps, c.ell, c.seed, c.k_max
                ))
            }
            ParsedRequest::Request(Request::StatsPools | Request::Persist) => None,
            ParsedRequest::Request(Request::Query(q)) => Some(self.query(&cur, &q)?),
            other => return Err(format!("replay cannot answer '{line}' ({other:?})")),
        };
        self.tracer.exit(root);
        Ok(answer)
    }

    fn query(&mut self, cur: &str, q: &Query) -> Result<String, String> {
        let req = self.req;
        if let Query::Ping = q {
            return Ok(ping_reply());
        }
        let (store, cfg) = self.graph(cur)?;
        let n = store.n() as f64;
        Ok(match q {
            Query::Select {
                k,
                fast: false,
                eps,
                ell,
            } => {
                let (eps, ell) = (eps.unwrap_or(cfg.eps), ell.unwrap_or(cfg.ell));
                let key = self.ensure_pool(cur, eps, ell)?;
                let plan = self.cached_plan(&key, *k)?;
                let pool = &self.pools[&key];
                let id = self.tracer.enter("greedy", req);
                let seeds = if plan.theta == pool.theta {
                    greedy_max_cover_indexed(&pool.sets.view(), plan.k).seeds
                } else {
                    let mut sub = subset(&pool.sets.view(), pool.theta, plan.theta);
                    greedy_max_cover(&mut sub, plan.k).seeds
                };
                self.tracer.exit(id);
                self.seeds_line(cur, &seeds)
            }
            Query::Select { k, fast: true, .. } => {
                let key = self.ensure_pool(cur, cfg.eps, cfg.ell)?;
                self.cached_plan(&key, cfg.k_max)?;
                if self.pools[&key].fast.is_none() {
                    let id = self.tracer.enter("greedy.fast", req);
                    let seeds =
                        greedy_max_cover_indexed(&self.pools[&key].sets.view(), cfg.k_max).seeds;
                    self.tracer.exit(id);
                    self.pools.get_mut(&key).expect("pool").fast = Some(seeds);
                }
                let fast = self.pools[&key].fast.as_ref().expect("fast cover");
                let take = (*k).min(fast.len());
                self.seeds_line(cur, &fast[..take])
            }
            Query::Eval { seeds } => {
                let key = self.ensure_pool(cur, cfg.eps, cfg.ell)?;
                let dense = self.loaded[cur].labels.map_all(seeds)?;
                let view = self.pools[&key].sets.view();
                let id = self.tracer.enter("coverage.eval", req);
                let covered = count_covered_indexed(&view, &dense);
                self.tracer.exit(id);
                let frac = if view.is_empty() {
                    0.0
                } else {
                    covered as f64 / view.len() as f64
                };
                format!("spread: {:.2}", frac * n)
            }
            Query::Marginal { base, cand } => {
                let key = self.ensure_pool(cur, cfg.eps, cfg.ell)?;
                let labels = &self.loaded[cur].labels;
                let base = labels.map_all(base)?;
                let c = match labels.map_all(cand)?.as_slice() {
                    &[c] => c,
                    _ => return Err("marginal: candidate must be a single id".into()),
                };
                let gain = if base.contains(&c) {
                    0.0
                } else {
                    let view = self.pools[&key].sets.view();
                    let id = self.tracer.enter("coverage.marginal", req);
                    let before = count_covered_indexed(&view, &base);
                    let mut with = base.clone();
                    with.push(c);
                    let after = count_covered_indexed(&view, &with);
                    self.tracer.exit(id);
                    (after - before) as f64 / view.len().max(1) as f64 * n
                };
                format!("marginal: {gain:.2}")
            }
            Query::Ping => unreachable!("answered above"),
        })
    }

    /// Sum of heap and mapped bytes of every resident pool.
    pub fn pool_bytes(&self) -> (usize, usize) {
        self.pools.values().fold((0, 0), |(h, m), p| {
            (h + p.sets.memory_bytes(), m + p.sets.mapped_bytes())
        })
    }

    /// Standalone timings of the entry points no request in the stream
    /// reached, and of the selection and coverage solvers on each resident
    /// pool. Written into `m`.
    pub fn probe(
        &self,
        m: &mut Metrics,
        probe_ids: &HashMap<String, Vec<u64>>,
    ) -> Result<(), String> {
        let mut verify = Vec::new();
        let mut decode = Vec::new();
        let mut open = Vec::new();
        for cfg in &self.tenants {
            let t = Instant::now();
            let csr = MmapCsr::open(&cfg.path).map_err(|e| e.to_string())?;
            open.push(ms_since(t));
            let t = Instant::now();
            csr.verify().map_err(|e| e.to_string())?;
            verify.push(ms_since(t));
            let t = Instant::now();
            snapshot::load_snapshot(&cfg.path).map_err(|e| e.to_string())?;
            decode.push(ms_since(t));
        }
        m.put("graph.verify_ms", median(&verify), "ms", verify.len());
        let from_stream = |name: &str| -> Vec<f64> {
            self.loads
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .collect()
        };
        for (name, fallback) in [("graph.decode", decode), ("graph.mmap_open", open)] {
            let v = from_stream(name);
            let v = if v.is_empty() { fallback } else { v };
            m.put(&format!("{name}_ms"), median(&v), "ms", v.len());
        }
        // Restore paths, on the last file this replay spilled when the
        // stream itself restored nothing.
        let spilled = self.last_spill.clone();
        for name in ["store.heap_load", "store.mmap_open", "store.verify"] {
            let mut v = from_stream(name);
            if v.is_empty() {
                let path = spilled.as_ref().ok_or("no pool file to probe")?;
                v.push(time_restore(name, path)?);
            }
            m.put(&format!("{name}_ms"), median(&v), "ms", v.len());
        }

        // Solvers on one resident pool per tenant: its default pool when
        // the stream built or restored it, else its smallest-ε pool.
        let mut greedy_ms = Vec::new();
        let mut evals = Vec::new();
        let mut eval_us = Vec::new();
        for cfg in &self.tenants {
            let mut keys: Vec<&PoolKey> = self.pools.keys().filter(|k| k.0 == cfg.name).collect();
            keys.sort_by_key(|k| (k.1 != cfg.eps.to_bits(), k.1));
            let Some(key) = keys.first() else { continue };
            let view = self.pools[*key].sets.view();
            let t = Instant::now();
            let (_, stats) = greedy_max_cover_indexed_stats(&view, cfg.k_max);
            greedy_ms.push(ms_since(t));
            evals.push(stats.evals_per_round());
            let ids = self.loaded[&cfg.name]
                .labels
                .map_all(&probe_ids[&cfg.name])?;
            for _ in 0..9 {
                let t = Instant::now();
                std::hint::black_box(count_covered_indexed(&view, &ids));
                eval_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        m.put("greedy.ms", median(&greedy_ms), "ms", greedy_ms.len());
        m.put(
            "greedy.evals_per_round",
            median(&evals),
            "count",
            evals.len(),
        );
        m.put("coverage.eval_us", median(&eval_us), "us", eval_us.len());
        Ok(())
    }
}

/// Milliseconds one restore entry point takes on the pool file `path`.
fn time_restore(name: &str, path: &Path) -> Result<f64, String> {
    let err = |e: tim_engine::EngineError| format!("{}: {e}", path.display());
    if name == "store.verify" {
        let mapped = PoolMmap::open(path).map_err(err)?;
        let t = Instant::now();
        mapped.verify().map_err(err)?;
        return Ok(ms_since(t));
    }
    let t = Instant::now();
    if name == "store.heap_load" {
        drop(RrPool::load(path).map_err(err)?);
    } else {
        drop(PoolMmap::open(path).map_err(err)?);
    }
    Ok(ms_since(t))
}

/// The sub-collection a fresh `theta`-set run would have sampled (the
/// shard-aligned prefix of the pool), as the engine carves it.
fn subset(view: &SetsView<'_>, pool_theta: u64, theta: u64) -> SetCollection {
    let pool_counts = shard_layout(pool_theta);
    let want = shard_layout(theta);
    let mut sub = SetCollection::with_capacity(view.universe(), theta as usize, theta as usize * 2);
    let mut start = 0usize;
    for (i, &count) in pool_counts.iter().enumerate() {
        let take = want.get(i).copied().unwrap_or(0) as usize;
        for j in 0..take {
            sub.push(view.set(start + j));
        }
        start += count as usize;
    }
    sub
}

/// A segment of the stream: the exchanges one server process saw, in the
/// order they were written, and whether that process restored pools.
pub struct Segment<'a> {
    pub exchanges: Vec<&'a Exchange>,
    pub restore: bool,
}

/// Result of one replay pass.
pub struct Pass<'a> {
    pub replayer: Replayer,
    pub wall_s: f64,
    /// `(exchange, request span id)` for every replayed exchange.
    pub roots: Vec<(&'a Exchange, Option<usize>)>,
}

/// Replays `segments` once, traced or not. Every replayed answer must
/// equal the TCP answer.
pub fn replay<'a>(
    tenants: &[Tenant],
    store_root: &Path,
    segments: &[Segment<'a>],
    traced: bool,
) -> Result<Pass<'a>, String> {
    std::fs::remove_dir_all(store_root).ok();
    let mut r = Replayer::new(tenants, store_root, traced)?;
    let mut roots = Vec::new();
    let t0 = Instant::now();
    for seg in segments {
        r.start_process(seg.restore)?;
        for ex in &seg.exchanges {
            let before = r.tracer.spans.len();
            let want = r.request(&ex.line)?;
            let root = (traced && r.tracer.spans.len() > before).then_some(before);
            if let (Some(want), Some(got)) = (want, ex.answer.as_ref()) {
                if &want != got {
                    return Err(format!(
                        "replay disagrees with the server on '{}': replay '{want}', server '{got}'",
                        ex.line
                    ));
                }
            }
            roots.push((*ex, root));
        }
    }
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        replayer: r,
        roots,
    })
}

/// Request kind for the per-kind breakdown.
pub fn kind(line: &str) -> String {
    let mut t = line.split_whitespace();
    let verb = t.next().unwrap_or("");
    let rest: Vec<&str> = t.collect();
    match verb {
        "select" if rest.contains(&"fast") => "select_fast".into(),
        "select"
            if rest
                .iter()
                .any(|r| r.starts_with("eps=") || r.starts_with("ell=")) =>
        {
            "select_eps".into()
        }
        "stats" if rest.first() == Some(&"pools") => "stats_pools".into(),
        v => v.to_string(),
    }
}

/// One measured request of the breakdown: TCP ms, residual ms, and the
/// self time of each layer name under its request span.
type KindRow = (f64, f64, BTreeMap<&'static str, f64>);

/// Per-layer metrics of a traced pass against the wall time of its
/// untraced twin, plus the per-kind breakdown of measured-phase requests
/// for the report.
pub fn summarize(traced: &Pass<'_>, plain_wall_s: f64, m: &mut Metrics) -> Vec<(String, String)> {
    let r = &traced.replayer;
    let plans = &r.plans;
    let pv = |f: fn(&PlanRec) -> f64| -> Vec<f64> { plans.iter().map(f).collect() };
    m.put("plan.kpt_ms", median(&pv(|p| p.kpt_ms)), "ms", plans.len());
    m.put(
        "plan.refine_ms",
        median(&pv(|p| p.refine_ms)),
        "ms",
        plans.len(),
    );
    m.put(
        "plan.rr_sets",
        median(&pv(|p| p.rr_sets as f64)),
        "count",
        plans.len(),
    );
    let b = &r.builds;
    let bv = |f: fn(&Build) -> f64| -> Vec<f64> { b.iter().map(f).collect() };
    m.put(
        "engine.warm_theta",
        median(&bv(|b| b.warm_theta as f64)),
        "count",
        b.len(),
    );
    m.put(
        "engine.theta_kmax",
        median(&bv(|b| b.theta_kmax as f64)),
        "count",
        b.len(),
    );
    m.put(
        "engine.overprovision",
        median(&bv(|b| b.warm_theta as f64 / b.theta_kmax.max(1) as f64)),
        "ratio",
        b.len(),
    );
    let sets: u64 = b.iter().map(|b| b.warm_theta).sum();
    let width: u64 = b.iter().map(|b| b.stats.total_width).sum();
    let nodes: u64 = b.iter().map(|b| b.stats.total_nodes).sum();
    let sample_ms: f64 = b.iter().map(|b| b.sample_ms).sum();
    m.put("sample.ms", median(&bv(|b| b.sample_ms)), "ms", b.len());
    m.put(
        "sample.sets",
        median(&bv(|b| b.warm_theta as f64)),
        "count",
        b.len(),
    );
    m.put(
        "sample.width_per_set",
        width as f64 / sets.max(1) as f64,
        "count",
        b.len(),
    );
    m.put(
        "sample.nodes_per_set",
        nodes as f64 / sets.max(1) as f64,
        "count",
        b.len(),
    );
    m.put(
        "sample.ns_per_width",
        sample_ms * 1e6 / width.max(1) as f64,
        "ns",
        b.len(),
    );
    m.put("index.ms", median(&bv(|b| b.index_ms)), "ms", b.len());
    m.put("store.spill_ms", median(&bv(|b| b.spill_ms)), "ms", b.len());
    m.put(
        "store.file_mb",
        median(&bv(|b| b.file_bytes as f64 / 1048576.0)),
        "MB",
        b.len(),
    );
    let (heap, mapped) = r.pool_bytes();
    m.put("pool.heap_mb", heap as f64 / 1048576.0, "MB", 1);
    m.put("pool.mapped_mb", mapped as f64 / 1048576.0, "MB", 1);
    m.put(
        "trace.overhead_frac",
        (traced.wall_s - plain_wall_s) / plain_wall_s.max(1e-9),
        "ratio",
        2,
    );

    // Per request: residual = TCP (written → answered) − request span.
    let own = r.tracer.self_ms();
    let spans = &r.tracer.spans;
    let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let mut residual_measured = Vec::new();
    let mut by_kind: BTreeMap<String, Vec<KindRow>> = BTreeMap::new();
    for &(ex, root) in &traced.roots {
        let (Some(root), Some(answered)) = (root, ex.answered) else {
            continue;
        };
        if ex.phase != crate::client::Phase::Measured {
            continue;
        }
        let tcp = answered.duration_since(ex.sent).as_secs_f64() * 1e3;
        let residual = tcp - spans[root].ms();
        residual_measured.push(residual);
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut stack = vec![root];
        while let Some(s) = stack.pop() {
            *layers.entry(spans[s].name).or_default() += own[s];
            stack.extend(children.get(&s).into_iter().flatten());
        }
        by_kind
            .entry(kind(&ex.line))
            .or_default()
            .push((tcp, residual, layers));
    }
    m.put(
        "trace.residual_ms",
        median(&residual_measured),
        "ms",
        residual_measured.len(),
    );
    let mut lines = Vec::new();
    for (k, rows) in by_kind {
        let tcp: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let res: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let mut names: Vec<&'static str> = rows.iter().flat_map(|r| r.2.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        // Means, not medians: means of parts add up to the mean whole.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let parts: Vec<String> = names
            .iter()
            .map(|n| {
                let v: Vec<f64> = rows
                    .iter()
                    .map(|r| r.2.get(n).copied().unwrap_or(0.0))
                    .collect();
                format!("{n}={:.3}", mean(&v))
            })
            .collect();
        lines.push((
            format!("breakdown {k}"),
            format!(
                "n={} mean ms: tcp={:.3} = residual {:.3} + self [{}]",
                rows.len(),
                mean(&tcp),
                mean(&res),
                parts.join(" ")
            ),
        ));
    }
    lines
}

//! The two workloads, each a traffic mix against one real server.
//!
//! - `cold_build`: closed-loop exact selects, each with a fresh ε, so every
//!   request builds, indexes and spills a dedicated pool (TIM+ from scratch).
//! - `restart`: repeated server restarts on a filled pool directory, one
//!   short script per tenant, `hept` mapped and `epin` heap-backed.

use crate::client::{Client, Exchange, Phase};
use crate::inputs::{self, Files, Rng, Scale, Tenant};
use crate::layers::{self, Segment};
use crate::oracle::{self, Verdict};
use crate::server::ServeCmd;
use crate::stats::{median, percentile, Metrics};
use crate::sys;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tim_diffusion::ModelKind;
use tim_engine::{PoolMmap, PoolStore};
use tim_server::ServerState;

/// What a workload run needs.
pub struct Ctx {
    pub tim: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub deadline: Instant,
    pub files: Files,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub verdict: Verdict,
    /// Extra report fields (sample counts, notes).
    pub report: Vec<(String, String)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.report.push((key.to_string(), value.to_string()));
    }
}

/// `--graph` flags for `tenants` plus the workload's serving flags.
fn serve_cmd(ctx: &Ctx, tenants: &[Tenant], pool_dir: &Path, extra: &[&str]) -> ServeCmd {
    let mut args = vec!["--pool-dir".to_string(), pool_dir.display().to_string()];
    args.extend(extra.iter().map(|s| s.to_string()));
    for t in tenants {
        args.push("--graph".into());
        args.push(t.spec());
    }
    ServeCmd {
        tim: ctx.tim.clone(),
        args,
    }
}

/// Cold starts of `extra` throwaway servers, each on its own empty pool
/// directory: seconds from spawn to the answer of a `ping`. The server
/// warms its default pool before its workers take connections, so this
/// is the time until a fresh server answers anything.
fn throwaway_cold_starts(
    ctx: &Ctx,
    tenants: &[Tenant],
    flags: &[&str],
    extra: usize,
) -> Result<Vec<f64>, String> {
    (0..extra)
        .map(|i| {
            let dir = ctx.work.join(format!("throwaway-{i}"));
            let server = serve_cmd(ctx, tenants, &dir, flags)
                .spawn(&ctx.work.join(format!("throwaway-{i}.log")), ctx.deadline)?;
            let mut client = Client::connect(server.addr, ctx.deadline)?;
            let idx = client.call("ping", Phase::Setup)?;
            let ex = &client.log[idx];
            if !ex.answer.as_deref().is_some_and(|a| a.starts_with("pong")) {
                return Err(format!("cold-start ping answered {:?}", ex.answer));
            }
            let s = secs(server.spawned, ex.answered.expect("answered"));
            server.stop();
            std::fs::remove_dir_all(&dir).ok();
            Ok(s)
        })
        .collect()
}

/// `setup_s` and `restart_ms` of a workload whose measured server answered
/// its first warm-up line at `first` and its last at `warm_end`: the cold
/// start is the median over this and the throwaway servers, the rest of
/// the warm-up is this server's.
fn put_setup(
    out: &mut Outcome,
    mut cold: Vec<f64>,
    server: &crate::server::Server,
    first: Instant,
    warm_end: Instant,
) {
    cold.push(secs(server.spawned, first));
    let cold_s = median(&cold);
    out.e2e
        .put("setup_s", cold_s + secs(first, warm_end), "s", cold.len());
    out.e2e.put("restart_ms", cold_s * 1e3, "ms", cold.len());
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// The client must be one thread driving its one connection (at most
/// `nproc`); otherwise the run would measure the generator, not the server.
fn check_generator() -> Result<(), String> {
    match sys::own_threads() {
        1 => Ok(()),
        threads => Err(format!(
            "run invalid: client process has {threads} threads while driving TCP"
        )),
    }
}

/// Parsed `stats pools` counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct PoolCounters {
    pub hits: u64,
    pub misses: u64,
    pub builds: u64,
    pub loads: u64,
    pub spills: u64,
    pub evictions: u64,
    pub mmap_opens: u64,
    pub verifies: u64,
    pub heap_loads: u64,
}

impl PoolCounters {
    pub fn parse(line: &str) -> Option<PoolCounters> {
        let rest = line.strip_prefix("pools: ")?;
        let mut c = PoolCounters::default();
        for kv in rest.split_whitespace() {
            let (k, v) = kv.split_once('=')?;
            let slot = match k {
                "hits" => &mut c.hits,
                "misses" => &mut c.misses,
                "builds" => &mut c.builds,
                "loads" => &mut c.loads,
                "spills" => &mut c.spills,
                "evictions" => &mut c.evictions,
                "mmap_opens" => &mut c.mmap_opens,
                "verifies" => &mut c.verifies,
                "heap_loads" => &mut c.heap_loads,
                _ => continue,
            };
            *slot = v.parse().ok()?;
        }
        Some(c)
    }

    fn add(&mut self, o: PoolCounters) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.builds += o.builds;
        self.loads += o.loads;
        self.spills += o.spills;
        self.evictions += o.evictions;
        self.mmap_opens += o.mmap_opens;
        self.verifies += o.verifies;
        self.heap_loads += o.heap_loads;
    }

    /// Per-layer `cache.*` metrics.
    pub fn put(&self, m: &mut Metrics) {
        m.put("cache.hits", self.hits as f64, "count", 1);
        m.put("cache.misses", self.misses as f64, "count", 1);
        m.put("cache.builds", self.builds as f64, "count", 1);
        m.put("cache.loads", self.loads as f64, "count", 1);
        m.put("cache.spills", self.spills as f64, "count", 1);
        m.put("cache.evictions", self.evictions as f64, "count", 1);
        m.put("cache.verifies", self.verifies as f64, "count", 1);
        let lookups = (self.hits + self.misses).max(1) as f64;
        m.put("cache.hit_frac", self.hits as f64 / lookups, "ratio", 1);
    }
}

/// Reads `stats pools` for each tenant (tail phase) and sums.
fn read_counters(client: &mut Client, tenants: &[Tenant]) -> Result<PoolCounters, String> {
    let mut sum = PoolCounters::default();
    for t in tenants {
        client.call(&format!("use {}", t.name), Phase::Tail)?;
        let idx = client.call("stats pools", Phase::Tail)?;
        let answer = client.log[idx].answer.clone().unwrap_or_default();
        sum.add(
            PoolCounters::parse(&answer)
                .ok_or_else(|| format!("bad stats pools answer '{answer}'"))?,
        );
    }
    Ok(sum)
}

fn latencies(log: &[Exchange], pick: impl Fn(&Exchange) -> bool) -> Vec<f64> {
    log.iter()
        .filter(|e| pick(e))
        .filter_map(Exchange::latency_ms)
        .collect()
}

/// Latency metrics over `lat` (ms), with their sample count in the report.
/// `latency_p99_ms` is the p99 where the run has at least 1000 samples;
/// below that a p99 is one of the few largest values, so the run reports
/// the highest percentile with ten samples beyond it (the median when
/// there are 20 or fewer), and says which.
fn put_latency(out: &mut Outcome, lat: &[f64]) {
    out.e2e.put("latency_p50_ms", median(lat), "ms", lat.len());
    let n = lat.len();
    let p = if n >= 1000 {
        99.0
    } else if n > 20 {
        100.0 * (n - 10) as f64 / n as f64
    } else {
        50.0
    };
    out.e2e
        .put("latency_p99_ms", percentile(lat, p).unwrap_or(0.0), "ms", n);
    out.note("latency_samples", n);
    out.note("latency_p99_ms_is_percentile", format!("{p:.2}"));
}

/// Report lines: measured-phase latency by request kind and tenant.
fn note_kinds<'a>(out: &mut Outcome, log: impl Iterator<Item = &'a Exchange>) {
    let mut cur = "default";
    let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for e in log {
        if let Some(name) = e.line.strip_prefix("use ") {
            cur = name;
        }
        if let (Phase::Measured, Some(ms)) = (e.phase, e.latency_ms()) {
            by.entry(format!("{}@{cur}", layers::kind(&e.line)))
                .or_default()
                .push(ms);
        }
    }
    for (k, v) in by {
        out.note(
            &format!("latency {k}"),
            format!(
                "n={} p50={:.3} p99={:.3} max={:.3} ms",
                v.len(),
                median(&v),
                percentile(&v, 99.0).unwrap_or(0.0),
                v.iter().cloned().fold(0.0, f64::max)
            ),
        );
    }
}

/// Pings sent in every tail: the transport round trip's sample.
const TAIL_PINGS: usize = 30;

/// Tail phase: pings, then every tenant's pool counters.
fn tail(client: &mut Client, tenants: &[Tenant]) -> Result<PoolCounters, String> {
    for _ in 0..TAIL_PINGS {
        client.call("ping", Phase::Tail)?;
    }
    read_counters(client, tenants)
}

/// Pairs each exchange with the oracle's in-process time for it.
fn pair<'a>(log: &'a [Exchange], micros: &[f64]) -> Vec<(&'a Exchange, f64)> {
    log.iter().zip(micros.iter().copied()).collect()
}

fn labels_of(
    state: &ServerState<ModelKind>,
    graph: &str,
    seeds: &[tim_graph::NodeId],
) -> Result<Vec<u64>, String> {
    let g = state.catalog().get(graph)?;
    Ok(seeds.iter().map(|&v| g.labels().label_of(v)).collect())
}

/// `engine.*` on each tenant's warm default `SharedEngine`, and
/// `session.<kind>_us` from a probe script through `Session::push_line`
/// (second and third pass, so plans and covers are cached). Returns the
/// probe's seed labels per tenant (the top-5 seeds, whose posting lists
/// are long enough to make coverage counting the cost of an `eval`).
fn probe_oracle(
    state: &ServerState<ModelKind>,
    tenants: &[Tenant],
    m: &mut Metrics,
) -> Result<HashMap<String, Vec<u64>>, String> {
    let mut ids = HashMap::new();
    let (mut sel, mut fast, mut spread, mut marg) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let time = |v: &mut Vec<f64>, scale: f64, f: &mut dyn FnMut()| {
        for _ in 0..3 {
            let t = Instant::now();
            f();
            v.push(t.elapsed().as_secs_f64() * scale);
        }
    };
    for t in tenants {
        let e = state.catalog().get(t.name)?.default_engine();
        let top = e.select(5).seeds;
        ids.insert(t.name.to_string(), labels_of(state, t.name, &top)?);
        for k in [5, 20, 50] {
            e.select(k);
            time(&mut sel, 1e3, &mut || {
                drop(std::hint::black_box(e.select(k)))
            });
            e.select_fast(k);
            time(&mut fast, 1e6, &mut || {
                drop(std::hint::black_box(e.select_fast(k)))
            });
        }
        time(&mut spread, 1e6, &mut || {
            std::hint::black_box(e.spread(&top));
        });
        time(&mut marg, 1e6, &mut || {
            std::hint::black_box(e.marginal_gain(&top[1..], top[0]));
        });
    }
    m.put("engine.select_ms", median(&sel), "ms", sel.len());
    m.put("engine.select_fast_us", median(&fast), "us", fast.len());
    m.put("engine.spread_us", median(&spread), "us", spread.len());
    m.put("engine.marginal_us", median(&marg), "us", marg.len());

    let mut script = Vec::new();
    for t in tenants {
        let l = &ids[t.name];
        script.push(format!("use {}", t.name));
        script.push("select 20".into());
        script.push("select 20 fast".into());
        script.push(format!("eval {}", inputs::ids(l)));
        script.push(format!("marginal {} {}", inputs::ids(&l[1..]), l[0]));
        script.push("ping".into());
        script.push("stats pools".into());
    }
    let lines: Vec<&str> = script.iter().map(String::as_str).collect();
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for pass in 0..3 {
        let r = oracle::replay(state, &lines);
        if pass > 0 {
            for (line, us) in lines.iter().zip(r.micros) {
                by_kind.entry(layers::kind(line)).or_default().push(us);
            }
        }
    }
    for (k, v) in &by_kind {
        m.put(&format!("session.{k}_us"), median(v), "us", v.len());
    }
    Ok(ids)
}

/// The traced part of a run: oracle-side probes, transport residuals,
/// then the layer replay twice (spans off, spans on) with its
/// faithfulness checks. Fails the run rather than report numbers from a
/// replay that does not match what the server did.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    ctx: &Ctx,
    workload: &str,
    out: &mut Outcome,
    tenants: &[Tenant],
    state: ServerState<ModelKind>,
    segments: &[Segment<'_>],
    session_us: &[(&Exchange, f64)],
    pool_dirs: &[&Path],
) -> Result<(), String> {
    let ids = probe_oracle(&state, tenants, &mut out.layers)?;
    drop(state);

    let tcp_ms = |e: &Exchange| {
        e.answered
            .map(|a| a.duration_since(e.sent).as_secs_f64() * 1e3)
    };
    let pings: Vec<f64> = session_us
        .iter()
        .filter(|(e, _)| e.phase == Phase::Tail && e.line == "ping")
        .filter_map(|(e, _)| tcp_ms(e))
        .collect();
    let ping_us = out.layers.get("session.ping_us").unwrap_or(0.0);
    out.layers.put(
        "transport.ping_rtt_us",
        median(&pings) * 1e3 - ping_us,
        "us",
        pings.len(),
    );
    let residual: Vec<f64> = session_us
        .iter()
        .filter(|(e, _)| e.phase == Phase::Measured)
        .filter_map(|(e, us)| tcp_ms(e).map(|t| t - us / 1e3))
        .collect();
    out.layers.put(
        "transport.residual_ms.p50",
        median(&residual),
        "ms",
        residual.len(),
    );
    out.layers.put(
        "transport.residual_ms.p99",
        percentile(&residual, 99.0).unwrap_or(0.0),
        "ms",
        residual.len(),
    );
    let mut parse_us = Vec::new();
    for (e, _) in session_us {
        let t = Instant::now();
        std::hint::black_box(tim_server::parse_request(&e.line));
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.layers
        .put("protocol.parse_us", median(&parse_us), "us", parse_us.len());

    let plain_wall = layers::replay(tenants, &ctx.work.join("replay"), segments, false)?.wall_s;
    let traced = layers::replay(tenants, &ctx.work.join("replay"), segments, true)?;
    for b in &traced.replayer.builds {
        for dir in pool_dirs {
            let path = PoolStore::open(dir.join(&b.tenant))
                .map_err(|e| e.to_string())?
                .path_for(&b.id);
            let theta = PoolMmap::open(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .meta()
                .theta;
            if theta != b.warm_theta {
                return Err(format!(
                    "replay faithfulness: {} pool θ {theta} != replayed warm θ {} ({})",
                    b.tenant,
                    b.warm_theta,
                    path.display()
                ));
            }
        }
    }
    out.note("theta_checked_pools", traced.replayer.builds.len());
    for (k, v) in layers::summarize(&traced, plain_wall, &mut out.layers) {
        out.note(&k, v);
    }
    traced.replayer.probe(&mut out.layers, &ids)?;
    let trace_dir = ctx.work.parent().unwrap_or(&ctx.work).join("traces");
    std::fs::create_dir_all(&trace_dir).ok();
    let path = trace_dir.join(format!("{workload}-seed{}.spans.jsonl", ctx.seed));
    traced
        .replayer
        .tracer
        .write(&path)
        .map_err(|e| format!("writing spans: {e}"))?;
    out.note(
        "spans",
        format!(
            "{} written to {}",
            traced.replayer.tracer.spans.len(),
            path.display()
        ),
    );
    Ok(())
}

/// `client.late_p99_ms`: how late the generator wrote its requests.
fn put_late<'a>(out: &mut Outcome, sent: impl Iterator<Item = &'a Exchange>) -> f64 {
    let late: Vec<f64> = sent.map(Exchange::late_ms).collect();
    let p99 = percentile(&late, 99.0).unwrap_or(0.0);
    out.layers.put("client.late_p99_ms", p99, "ms", late.len());
    p99
}

/// Tenants of `cold_build`, in catalog (name) order.
pub fn cold_tenants(files: &Files, scale: Scale) -> Vec<Tenant> {
    vec![
        inputs::epin(files, scale),
        inputs::epin_lt(files, scale),
        inputs::hept(files, scale, false),
    ]
}

/// `cold_build`: one connection, closed loop, rounds of
/// `use T` + `select 50 eps=<fresh ε>` over the three tenants until the
/// run's seconds are spent (whole rounds only, so the mix is fixed).
pub fn cold_build(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tenants = cold_tenants(&ctx.files, ctx.scale);
    let flags = ["--persist-pools", "--admin"];
    let pool_dir = ctx.work.join("pools");
    let cold = throwaway_cold_starts(ctx, &tenants, &flags, 2)?;
    let server = serve_cmd(ctx, &tenants, &pool_dir, &flags)
        .spawn(&ctx.work.join("serve.log"), ctx.deadline)?;
    let mut client = Client::connect(server.addr, ctx.deadline)?;
    check_generator()?;

    // Warm-up: the server warms its default graph (`epin`) at start;
    // `select 1` waits for that pool. `stats` pins each tenant's config.
    let mut warm = vec!["stats".to_string(), "select 1".to_string()];
    for t in &tenants[1..] {
        warm.push(format!("use {}", t.name));
        warm.push("stats".into());
    }
    for line in &warm {
        client.call(line, Phase::Setup)?;
    }
    let first = client.log[0].answered.expect("answered");
    let warm_end = client
        .log
        .last()
        .and_then(|e| e.answered)
        .expect("answered");
    put_setup(&mut out, cold, &server, first, warm_end);

    // The dedicated pools are sized so a run holds three rounds and its
    // medians rest on more than one build per tenant.
    let [hept_eps, epin_eps, lt_eps] = ctx.scale.cold_eps;
    let order = [(2usize, hept_eps), (0, epin_eps), (1, lt_eps)];
    // A fixed number of rounds per run length (one per started 4 s), not
    // "until the time is up": pool count, disk and memory must not depend
    // on how fast the host happened to be.
    let rounds = (ctx.seconds / 4.0).ceil().max(1.0) as u32;
    let t0 = Instant::now();
    for round in 0..rounds {
        for &(ti, base) in &order {
            client.call(&format!("use {}", tenants[ti].name), Phase::Measured)?;
            let eps = inputs::eps_variant(base, round, ctx.seed);
            client.call(&format!("select 50 eps={eps}"), Phase::Measured)?;
        }
    }
    let t_end = client
        .log
        .last()
        .and_then(|e| e.answered)
        .expect("answered");
    let is_select = |e: &Exchange| e.phase == Phase::Measured && e.line.starts_with("select");
    let lat = latencies(&client.log, is_select);
    out.e2e.put(
        "throughput_qps",
        lat.len() as f64 / secs(t0, t_end),
        "req/s",
        lat.len(),
    );
    put_latency(&mut out, &lat);
    put_late(
        &mut out,
        client.log.iter().filter(|e| e.phase == Phase::Measured),
    );
    note_kinds(&mut out, client.log.iter());
    out.note("rounds", rounds);

    tail(&mut client, &tenants)?.put(&mut out.layers);
    out.e2e.put("peak_rss_mb", server.peak_rss_mb(), "MB", 1);
    server.stop();
    out.e2e.put(
        "pool_disk_mb",
        sys::dir_bytes(&pool_dir) as f64 / 1048576.0,
        "MB",
        1,
    );

    let oracle_dir = ctx.work.join("oracle-pools");
    let state = oracle::state(&tenants, ctx.trace.then_some(oracle_dir.as_path()), true)?;
    let reference = oracle::replay(&state, &oracle::lines_of(&client.log));
    out.verdict.check_log(&client.log, &reference.answers);
    if ctx.trace {
        let segments = [Segment {
            exchanges: client.log.iter().collect(),
            restore: false,
        }];
        let session_us = pair(&client.log, &reference.micros);
        trace_layers(
            ctx,
            "cold_build",
            &mut out,
            &tenants,
            state,
            &segments,
            &session_us,
            &[&pool_dir, &oracle_dir],
        )?;
    }
    Ok(out)
}

/// Tenants of `restart`: `hept` mapped (graph and pools), `epin` on the heap.
pub fn restart_tenants(files: &Files, scale: Scale) -> Vec<Tenant> {
    vec![inputs::epin(files, scale), inputs::hept(files, scale, true)]
}

/// The restart script for one tenant (without the closing `stats pools`).
pub fn restart_script(t: &Tenant, base_eps: f64, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x5eed);
    vec![
        format!("use {}", t.name),
        "select 50".into(),
        format!("select 20 eps={}", inputs::eps_variant(base_eps, 20, seed)),
        "select 10 fast".into(),
        format!("eval {}", inputs::ids(&t.labels(&mut rng, 5))),
    ]
}

/// Pools each tenant's restart script touches: the default and one ε.
const RESTART_POOLS: u64 = 2;

/// `restart`: an untimed fill run persists every pool of the script; then
/// cycles of start → script → stop, 1.5 per second of run length (at least
/// three). Each cycle must restore, never build.
pub fn restart(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tenants = restart_tenants(&ctx.files, ctx.scale);
    let eps = |t: &Tenant| {
        if t.name == "hept" {
            ctx.scale.eps_hept
        } else {
            ctx.scale.eps_epin
        }
    };
    let pool_dir = ctx.work.join("pools");
    // `ping` first: it waits for the server to take connections (after its
    // default-pool restore). It also makes a cycle nine queries, so their
    // median falls inside one query's group rather than between two.
    let mut script: Vec<String> = vec!["ping".into()];
    for t in tenants.iter().rev() {
        script.extend(restart_script(t, eps(t), ctx.seed));
        script.push("stats pools".into());
    }

    // Fill: the same script (plus `stats` for the config check) with
    // write-back on, then `persist` so nothing is left in flight.
    let fill_cmd = serve_cmd(ctx, &tenants, &pool_dir, &["--persist-pools", "--admin"]);
    let server = fill_cmd.spawn(&ctx.work.join("fill.log"), ctx.deadline)?;
    let mut listens = vec![server.listen_s];
    let listening = server.spawned + Duration::from_secs_f64(server.listen_s);
    let mut fill = Client::connect(server.addr, ctx.deadline)?;
    check_generator()?;
    let mut fill_lines: Vec<String> = Vec::new();
    for t in tenants.iter().rev() {
        fill_lines.push(format!("use {}", t.name));
        fill_lines.push("stats".into());
        fill_lines.extend(restart_script(t, eps(t), ctx.seed));
    }
    fill_lines.push("persist".into());
    for line in &fill_lines {
        fill.call(line, Phase::Setup)?;
    }
    let fill_end = fill.log.last().and_then(|e| e.answered).expect("answered");
    let fill_s = secs(listening, fill_end);
    for _ in 0..TAIL_PINGS {
        fill.call("ping", Phase::Tail)?;
    }
    server.stop();

    let cycle_cmd = serve_cmd(ctx, &tenants, &pool_dir, &["--admin"]);
    let mut cycles: Vec<Vec<Exchange>> = Vec::new();
    let mut restart_ms = Vec::new();
    let mut rss = Vec::new();
    // A fixed number of cycles per run length, not "until the time is
    // up": the latency sample count, and so the percentile reported as
    // `latency_p99_ms`, must not depend on how fast the host is.
    let n_cycles = (ctx.seconds * 1.5).ceil().max(3.0) as usize;
    let t0 = Instant::now();
    while cycles.len() < n_cycles {
        let server = cycle_cmd.spawn(&ctx.work.join("cycle.log"), ctx.deadline)?;
        listens.push(server.listen_s);
        let mut client = Client::connect(server.addr, ctx.deadline)?;
        for line in &script {
            client.call(line, Phase::Measured)?;
        }
        let last = client
            .log
            .last()
            .and_then(|e| e.answered)
            .expect("answered");
        restart_ms.push(secs(server.spawned, last) * 1e3);
        rss.push(server.peak_rss_mb());
        server.stop();
        // The restart invariant: restores only, mapped where configured,
        // read from one parsable `stats pools` answer per tenant.
        let mut cur = "";
        let mut counters = PoolCounters::default();
        let mut parsed = 0;
        for e in &client.log {
            if let Some(name) = e.line.strip_prefix("use ") {
                cur = name;
            }
            if e.line != "stats pools" {
                continue;
            }
            let answer = e.answer.as_deref().unwrap_or("");
            let Some(c) = PoolCounters::parse(answer) else {
                out.verdict.fail(format!(
                    "restart cycle {}: tenant {cur}: unparsable stats pools answer '{answer}'",
                    cycles.len()
                ));
                continue;
            };
            parsed += 1;
            counters.add(c);
            let mapped = cur == "hept";
            let backing_ok = if mapped {
                c.mmap_opens > 0 && c.verifies > 0
            } else {
                c.mmap_opens == 0 && c.verifies == 0
            };
            let ok = c.builds == 0 && c.loads == RESTART_POOLS && backing_ok;
            if !ok {
                out.verdict.fail(format!(
                    "restart cycle {}: tenant {cur} broke the restart invariant: {}",
                    cycles.len(),
                    e.answer.as_deref().unwrap_or("")
                ));
            }
        }
        if parsed != tenants.len() {
            out.verdict.fail(format!(
                "restart cycle {}: {parsed} stats pools answers parsed, {} tenants",
                cycles.len(),
                tenants.len()
            ));
        }
        if cycles.is_empty() {
            counters.put(&mut out.layers);
        }
        cycles.push(client.log);
    }
    let phase_s = t0.elapsed().as_secs_f64();

    out.e2e
        .put("setup_s", median(&listens) + fill_s, "s", listens.len());
    out.e2e
        .put("restart_ms", median(&restart_ms), "ms", restart_ms.len());
    let all: Vec<Exchange> = cycles.iter().flatten().cloned().collect();
    // Latency over the queries a client waits on (`ping`, `select`,
    // `eval`): with the session and admin verbs (`use`, `stats pools`, all
    // sub-millisecond) in the sample, the median sits on the edge between
    // them and the cheapest query, and moves with whichever wins.
    let lat = latencies(&all, |e| {
        !e.line.starts_with("use ") && e.line != "stats pools"
    });
    out.e2e.put(
        "throughput_qps",
        all.len() as f64 / phase_s,
        "req/s",
        all.len(),
    );
    put_latency(&mut out, &lat);
    put_late(&mut out, all.iter());
    note_kinds(&mut out, all.iter());
    out.e2e.put("peak_rss_mb", median(&rss), "MB", rss.len());
    out.e2e.put(
        "pool_disk_mb",
        sys::dir_bytes(&pool_dir) as f64 / 1048576.0,
        "MB",
        1,
    );
    out.note("cycles", cycles.len());

    // Oracle: the fill from scratch with write-back into its own store,
    // then the cycle script on a fresh state restoring from that store.
    let oracle_dir = ctx.work.join("oracle-pools");
    let fill_state = oracle::state(&tenants, Some(&oracle_dir), true)?;
    let fill_ref = oracle::replay(&fill_state, &oracle::lines_of(&fill.log));
    out.verdict.check_log(&fill.log, &fill_ref.answers);
    drop(fill_state);
    let state = oracle::state(&tenants, Some(&oracle_dir), false)?;
    let script_refs: Vec<&str> = script.iter().map(String::as_str).collect();
    let cycle_ref = oracle::replay(&state, &script_refs);
    for log in &cycles {
        out.verdict.check_log(log, &cycle_ref.answers);
    }
    if ctx.trace {
        let segments = [
            Segment {
                exchanges: fill.log.iter().collect(),
                restore: false,
            },
            Segment {
                exchanges: cycles[0].iter().collect(),
                restore: true,
            },
        ];
        let mut session_us = pair(&fill.log, &fill_ref.micros);
        for log in &cycles {
            session_us.extend(pair(log, &cycle_ref.micros));
        }
        trace_layers(
            ctx,
            "restart",
            &mut out,
            &tenants,
            state,
            &segments,
            &session_us,
            &[&pool_dir, &oracle_dir],
        )?;
    }
    Ok(out)
}

//! Sharded-selection scaling benchmark: serial lazy greedy vs the
//! sharded lazy solver at 1/2/4/8 worker threads over one RR-set pool.
//!
//! ```text
//! cargo run --release -p tim_bench --bin select_scaling -- [flags]
//!
//! flags:
//!   --quick        kick-tires scale only (CI artifact)
//!   --out <path>   where to write the JSON report (default BENCH_13.json)
//! ```
//!
//! The harness builds the paper-scale weighted graph (~1.3M arcs in full
//! mode), samples one deterministic RR-set pool through the production
//! sharded generator, and then times seed selection over that *same*
//! pool: the serial `greedy_max_cover_indexed_stats` baseline against
//! `greedy_max_cover_sharded_indexed_stats` at each thread count. Every
//! sharded result is compared against the serial `CoverResult` — seeds,
//! marginals, and coverage must be identical, or the run fails loudly
//! (`identical`). Thread count is allowed to change latency and
//! evaluation counts and nothing else; that is the determinism contract
//! the differential suite pins, and this bench re-checks it at
//! measurement scale.
//!
//! Beyond latency, the report records *work*: `evals_per_round` is how
//! many candidate gains each configuration inspected per greedy round
//! ([`EvalStats`]), which is hardware-independent. The acceptance bar —
//! at the full scale the sharded workers evaluate ≥ 5× fewer candidates
//! per round than a full node scan would (`graph.nodes`) — holds on any
//! machine, single-core CI runners included. `threads = 1` delegates to
//! the serial solver.
//!
//! The report is machine readable (schema `tim-bench-select/3`);
//! `bench_schema_check` validates it in CI (the older
//! `tim-bench-select/1` and `/2` reports, BENCH_8.json and BENCH_9.json,
//! stay valid) and the full-scale run is checked in at the repo root so
//! the trajectory is diffable. Speedups are hardware-relative, so the
//! schema enforces shape, identity, and the evaluation bar — not a
//! speedup floor.

use std::time::Instant;
use tim_core::parallel::generate_rr_sets;
use tim_coverage::{
    greedy_max_cover_indexed_stats, greedy_max_cover_sharded_indexed_stats, CoverResult, EvalStats,
    SetCollection,
};
use tim_diffusion::IndependentCascade;
use tim_graph::{gen, weights};

/// The thread counts the acceptance bar names.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Opts {
    quick: bool,
    out: String,
}

/// One thread count's measurement.
struct ThreadReport {
    threads: usize,
    select_ms: f64,
    speedup: f64,
    stats: EvalStats,
    identical: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        quick: false,
        out: "BENCH_13.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out = it.next().expect("--out requires a value"),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Median of `runs` timed executions of `f`, in milliseconds.
fn median_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(runs >= 1);
    let mut samples = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let v = f();
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(v);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    (samples[samples.len() / 2], last.unwrap())
}

fn same_answer(a: &CoverResult, b: &CoverResult) -> bool {
    a.seeds == b.seeds && a.marginal == b.marginal && a.covered == b.covered
}

fn thread_json(t: &ThreadReport) -> String {
    format!(
        "{{\"threads\": {}, \"lazy\": {{\"select_ms\": {:.3}, \"speedup\": {:.2}, \
         \"evals_per_round\": {:.1}, \"repushes\": {}, \"dirty\": {}, \"identical\": {}}}}}",
        t.threads,
        t.select_ms,
        t.speedup,
        t.stats.evals_per_round(),
        t.stats.repushes,
        t.stats.dirty,
        t.identical,
    )
}

#[allow(clippy::too_many_arguments)]
fn emit_json(
    quick: bool,
    nodes: usize,
    arcs: usize,
    theta: u64,
    k: usize,
    serial_ms: f64,
    serial_stats: &EvalStats,
    threads: &[ThreadReport],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"tim-bench-select/3\",\n");
    out.push_str("  \"bench\": \"select_scaling\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!(
        "  \"graph\": {{\"kind\": \"barabasi_albert\", \"nodes\": {nodes}, \"arcs\": {arcs}}},\n"
    ));
    out.push_str(&format!("  \"theta\": {theta},\n"));
    out.push_str(&format!("  \"k\": {k},\n"));
    out.push_str(&format!(
        "  \"serial\": {{\"select_ms\": {:.3}, \"evals_per_round\": {:.1}, \"repushes\": {}}},\n",
        serial_ms,
        serial_stats.evals_per_round(),
        serial_stats.repushes,
    ));
    out.push_str("  \"threads\": [\n");
    for (i, t) in threads.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            thread_json(t),
            if i + 1 < threads.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let opts = parse_opts();

    // Quick mode drills the kick-tires shape; full mode is the paper's
    // ~1.3M-arc scale (same generator call as graph_load's acceptance
    // scale, so the two trajectories describe one graph).
    let (mut graph, theta, k) = if opts.quick {
        (gen::barabasi_albert(2_000, 4, 0.0, 1), 20_000u64, 50usize)
    } else {
        (
            gen::barabasi_albert(160_000, 8, 0.0, 2),
            200_000u64,
            50usize,
        )
    };
    weights::assign_weighted_cascade(&mut graph);
    let (nodes, arcs) = (graph.n(), graph.m());
    eprintln!(
        "select_scaling: {nodes} nodes, {arcs} arcs ({}), sampling θ={theta}",
        if opts.quick { "quick" } else { "full" }
    );

    // One pool, sampled once through the production sharded generator —
    // every timed selection below reads this same immutable collection.
    let (mut pool, _) = generate_rr_sets(&graph, &IndependentCascade, theta, 0xB8, 1);
    pool.ensure_inverted_index();
    let pool: SetCollection = pool;

    let runs = if opts.quick { 5 } else { 3 };
    let (serial_ms, (serial, serial_stats)) =
        median_ms(runs, || greedy_max_cover_indexed_stats(&pool, k));
    eprintln!(
        "  serial:       {serial_ms:>9.3} ms  (k={k}, coverage {}, {:.1} evals/round)",
        serial.covered,
        serial_stats.evals_per_round()
    );

    let mut threads = Vec::new();
    for t in THREAD_COUNTS {
        let (select_ms, (result, stats)) =
            median_ms(runs, || greedy_max_cover_sharded_indexed_stats(&pool, k, t));
        let identical = same_answer(&result, &serial);
        let speedup = serial_ms / select_ms.max(1e-9);
        eprintln!(
            "  sharded x{t}:   {select_ms:>9.3} ms  ({speedup:.2}x vs serial)  \
             {:.1} evals/round  identical={identical}",
            stats.evals_per_round(),
        );
        threads.push(ThreadReport {
            threads: t,
            select_ms,
            speedup,
            stats,
            identical,
        });
    }

    let json = emit_json(
        opts.quick,
        nodes,
        arcs,
        theta,
        k,
        serial_ms,
        &serial_stats,
        &threads,
    );
    // Self-check the emitter against our own parser before writing: a
    // malformed report should fail here, not in CI.
    tim_bench::json::parse(&json).expect("emitted JSON must parse");
    std::fs::write(&opts.out, &json).expect("write report");
    eprintln!("wrote {}", opts.out);

    if threads.iter().any(|t| !t.identical) {
        eprintln!("error: sharded selection diverged from serial — see report");
        std::process::exit(1);
    }
    // The acceptance bar, enforced at measurement scale: the sharded
    // workers must evaluate ≥ 5× fewer candidates per round than a full
    // node scan wherever real sharding happens (t ≥ 2; t = 1 delegates
    // to the serial solver).
    if !opts.quick {
        for t in threads.iter().filter(|t| t.threads >= 2) {
            let ratio = nodes as f64 / t.stats.evals_per_round().max(1e-9);
            if ratio < 5.0 {
                eprintln!(
                    "error: at t={} the sharded solver evaluates only {ratio:.1}x fewer \
                     candidates per round than a full node scan (need >= 5x)",
                    t.threads
                );
                std::process::exit(1);
            }
        }
    }
}
